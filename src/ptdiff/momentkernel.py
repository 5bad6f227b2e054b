"""Moment-matching mollifier construction for jet reconstruction.

The kernel is a polynomial-times-bump ansatz supported in B(0,1) with unit
mass and vanishing moments up to degree k-1, so that the rescaled family
reproduces polynomials of degree at most k-1 under convolution.  The even
bump halves the moment system by parity; moments are computed by
quadrature at a tolerance well below the residual gate, except the angular
factor of a 2-D moment, an exact rational multiple of pi.  The residuals
of every multi-index are verified in one lockstep quadrature call.

The bump moments, with their quadrature bounds, form one table per
dimension (``moment_table``), filled whole on its first request; the
kernel build and the closed-form pairing of polynomials read it.

``build_kernel`` builds and verifies a kernel in the process on every call;
sup norms are computed on request and memoized on the kernel object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from . import cores, tensor
from .quadrature import QuadratureConfig, integrate_box, integrate_boxes, job_runs
from .tensor import MultiIndex, PolyJet, xi_set
from .testfn import TestFn, seminorm

MOMENT_QUAD = QuadratureConfig(rel_tol=1e-12, abs_floor=1e-15)
VERIFY_QUAD = QuadratureConfig(rel_tol=1e-12, abs_floor=1e-13)
RESIDUAL_GATE = 1e-10
MAX_DEGREE = 5
MAX_SUPNORM_ORDER = 4  # highest i of the kernel sup norms sup ||D^i Phi||
# total order the moment table is filled to: jets of degree <= 6 (the
# probes' derivative bound) paired with monomial cores of order <= 3
MOMENT_ORDER = 9


class KernelConstructionError(RuntimeError):
    pass


@dataclass(frozen=True)
class MomentKernel:
    n: int
    degree: int
    testfn: TestFn
    moment_residuals: Dict[Tuple[int, ...], float]
    _supnorms: Dict[int, float] = field(default_factory=dict, repr=False, compare=False)

    def deriv_supnorm(self, i: int) -> float:
        """sup ||D^i Phi|| by ``seminorm``, memoized on this kernel object, not process-wide."""
        if not 0 <= i <= MAX_SUPNORM_ORDER:
            raise ValueError(f"kernel sup norms have orders 0..{MAX_SUPNORM_ORDER}, not {i}")
        if i not in self._supnorms:
            self._supnorms[i] = seminorm(self.testfn, i)
        return self._supnorms[i]

    def directed(self, a, r: float, d: int = 1, component: int = 0) -> TestFn:
        """x -> Phi_r(x - a) e_component with Phi_r(x) = r^{-n} Phi(x / r), values in R^d.

        Phi_r keeps the unit mass.
        """
        fn = self.testfn.rescale(np.asarray(a, dtype=float), r).scaled_by(r ** (-self.n))
        if d == 1:
            return fn
        coeffs = np.zeros((len(fn.radii), d))
        coeffs[:, component] = fn.coeffs[:, 0]
        return replace(fn, coeffs=coeffs, d=d)


def _angular_moment(*half: int) -> float:
    """integral of u^(2 half) over the unit sphere of R^n, n = len(half).

    This is 2 prod_j Gamma(h_j + 1/2) / Gamma(|h| + n/2), and Gamma(h + 1/2)
    = (2h)! sqrt(pi) / (4^h h!), so it is pi^(n // 2) times a rational
    number whose float the integer division rounds correctly.  In 2-D it is
    2 B(p + 1/2, q + 1/2), the integral of cos^2p sin^2q over the circle.
    """
    f = math.factorial
    n, m = len(half), sum(half)
    num = 2 * math.prod(f(2 * h) for h in half)
    den = 4 ** m * math.prod(f(h) for h in half)
    if n % 2 == 0:
        den *= f(m + n // 2 - 1)
    else:  # Gamma(N + 1/2) with N = m + n // 2 in the denominator
        big = m + n // 2
        num *= 4 ** big * f(big)
        den *= f(2 * big)
    return num / den * math.pi ** (n // 2)


@lru_cache(maxsize=None)
def _radial_moment(p: int) -> Tuple[float, float]:
    """(value, bound) of the integral of rho^p * bump over [0, 1], by quadrature."""

    def g(pts):
        return cores.core_eval(1, cores.BUMP, None, MultiIndex((0,)), pts) * pts[:, 0] ** p

    radial, bound, _ = integrate_box(g, [0.0], [1.0], (), MOMENT_QUAD)
    return radial, bound


@lru_cache(maxsize=None)
def _moment(n: int, total: MultiIndex) -> Tuple[float, float]:
    """(value, bound) of the integral of x^total * bump(x) over B(0,1).

    Odd exponents give exact zeros.  From n = 2 on, the bump is radial: the
    moment is an exact angular factor times a 1-D radial integral, one per
    total order.  A 1-D moment is one quadrature over [-1, 1].
    """
    if any(e % 2 for e in total.entries):
        return 0.0, 0.0
    if n >= 2:
        angular = _angular_moment(*(e // 2 for e in total.entries))
        radial, bound = _radial_moment(total.order + n - 1)
        return angular * radial, angular * bound

    def f(pts):
        vals = cores.core_eval(n, cores.BUMP, None, MultiIndex((0,) * n), pts)
        for j, e in enumerate(total.entries):
            if e:
                vals = vals * pts[:, j] ** e
        return vals

    v, bound, _ = integrate_box(f, [-1.0] * n, [1.0] * n, (), MOMENT_QUAD)
    return v, bound


@lru_cache(maxsize=None)
def _moment_table(n: int, order: int) -> Tuple[np.ndarray, np.ndarray]:
    rows = [_moment(n, MultiIndex(tuple(r))) for r in tensor._table(n, order).tolist()]
    return tuple(tensor._frozen(np.array(col)) for col in zip(*rows))


def moment_table(n: int, order: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """(values, bounds) of the bump moments M(eta), eta over the rows of
    ``tensor._table(n, top)``, top = max(order, MOMENT_ORDER).

    The table is filled whole on its first request, so the quadratures all
    run at once (in the first kernel build) and never one exponent at a
    time in later calls.
    """
    return _moment_table(n, max(order, MOMENT_ORDER))


def _even_indices(n: int, max_order: int):
    return [xi for m in range(max_order + 1) for xi in xi_set(n, m)
            if all(e % 2 == 0 for e in xi.entries)]


def _solve_coefficients(n: int, k: int) -> Dict[Tuple[int, ...], float]:
    ansatz = _even_indices(n, k - 1)
    m = len(ansatz)
    M = np.empty((m, m))
    values, _ = moment_table(n, 2 * (k - 1))
    row = tensor._row(n, 2 * (k - 1))  # the table's layout is prefix-stable
    for i, eta in enumerate(ansatz):
        for j, xi in enumerate(ansatz):
            M[i, j] = values[row[(xi + eta).entries]]
    rhs = np.zeros(m)
    rhs[0] = 1.0  # unit mass; higher even moments vanish
    try:
        cond = np.linalg.cond(M)
        c = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        c, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        cond = float("inf")
    residual = float(np.max(np.abs(M @ c - rhs)))
    if residual > RESIDUAL_GATE:
        raise KernelConstructionError(
            f"moment system residual {residual:.3e} above gate (condition {cond:.3e})")
    return {xi.entries: float(ci) for xi, ci in zip(ansatz, c)}


def _assemble(n: int, coeffs: Dict[Tuple[int, ...], float]) -> TestFn:
    """The sum of c bump(x) x^xi over the coefficients: one atom each, on B(0, 1)."""
    kinds = tuple((cores.BUMP_MONOMIAL, xi) if sum(xi) else (cores.BUMP, None) for xi in coeffs)
    count = len(kinds)
    return TestFn(n, 1, kinds, np.arange(count), np.zeros((count, n)), np.ones(count),
                  np.array(list(coeffs.values()), dtype=float).reshape(count, 1),
                  (0.0,) * n, 1.0, label="moment_kernel")


def _verify_residuals(n: int, k: int, fn: TestFn) -> Dict[Tuple[int, ...], float]:
    """|integral of x^xi fn - [xi = 0]| for |xi| < k, one engine job per xi."""
    indices = [xi for m in range(0, k) for xi in xi_set(n, m)]

    def f(pts, job):
        starts, lengths, jobs = job_runs(job)
        vals = fn(pts)[:, 0]
        for s, e, which in zip(starts, starts + lengths, jobs):
            for j, p in enumerate(indices[which].entries):
                if p:
                    vals[s:e] = vals[s:e] * pts[s:e, j] ** p
        return vals

    # in 2-D over the disk: polar cells follow the support's edge, where a grid loses digits
    disk = ((0.0, 0.0), 1.0) if n == 2 else None
    results = integrate_boxes(f, [([-1.0] * n, [1.0] * n, (), disk)] * len(indices), VERIFY_QUAD)
    return {xi.entries: abs(v - (1.0 if xi.order == 0 else 0.0))
            for xi, (v, _, _) in zip(indices, results)}


def build_kernel(n: int, k: int) -> MomentKernel:
    """Kernel of degree k: unit mass, vanishing moments up to degree k-1,
    built on every call and every moment residual verified against the gate."""
    if not (1 <= k <= MAX_DEGREE):
        raise ValueError(f"kernel degree must be in 1..{MAX_DEGREE}")
    if n > 2:
        raise ValueError("kernel construction is implemented for n <= 2")
    fn = _assemble(n, _solve_coefficients(n, k))
    residuals = _verify_residuals(n, k, fn)
    worst = max(residuals.values(), default=0.0)
    if worst > RESIDUAL_GATE:
        raise KernelConstructionError(f"moment residual {worst:.3e} above gate")
    return MomentKernel(n, k, fn, residuals)


def verify_reproduction(kernel: MomentKernel, Q: PolyJet, x, r: float,
                        config: QuadratureConfig = QuadratureConfig()) -> float:
    """|(Phi_r * Q)(x) - Q(x)| by quadrature; the defining property defect.

    It stays on quadrature, not on the closed-form pairing of polynomials,
    so that it checks the moment table independently.
    """
    x = np.asarray(x, dtype=float).reshape(kernel.n)
    phi_r = kernel.directed(np.zeros(kernel.n), r)

    def f(pts):
        # (Phi_r * Q)(x) = integral Phi_r(y) Q(x - y) dy
        return phi_r(pts)[:, 0] * np.atleast_2d(Q.eval(x[None, :] - pts))[:, 0]

    v, _, _ = integrate_box(f, [-r] * kernel.n, [r] * kernel.n, (), config)
    return float(abs(v - Q.eval(x)[0]))
