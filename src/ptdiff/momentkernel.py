"""Moment-matching mollifier construction for jet reconstruction.

The kernel is a polynomial-times-bump ansatz supported in B(0,1) with unit
mass and vanishing moments up to degree k-1, so that the rescaled family
reproduces polynomials of degree at most k-1 under convolution.  The even
bump halves the moment system by parity; moments are computed by
quadrature at a tolerance well below the residual gate, except the angular
factor of a 2-D moment, an exact rational multiple of pi.  The residuals
of every multi-index are verified in one lockstep quadrature call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from . import cores
from .quadrature import QuadratureConfig, integrate_box, integrate_boxes
from .tensor import MultiIndex, PolyJet, xi_set
from .testfn import CoreAtom, TestFn, seminorm

MOMENT_QUAD = QuadratureConfig(rel_tol=1e-12, abs_floor=1e-15)
VERIFY_QUAD = QuadratureConfig(rel_tol=1e-12, abs_floor=1e-13)
RESIDUAL_GATE = 1e-10
MAX_DEGREE = 5
BUMP_ID = "radial_exp_reciprocal"
# cached deriv_supnorms are reused as stored; raise this whenever seminorm
# or the core evaluation changes its values, so that older cache entries
# are rebuilt
SUPNORM_REVISION = 4


class KernelConstructionError(RuntimeError):
    pass


@dataclass(frozen=True)
class MomentKernel:
    n: int
    degree: int
    testfn: TestFn
    moment_residuals: Dict[Tuple[int, ...], float]
    deriv_supnorms: Dict[int, float]

    def scaled(self, r: float) -> TestFn:
        """Phi_r(x) = r^{-n} Phi(x / r); unit mass is preserved."""
        if r <= 0:
            raise ValueError("scale must be positive")
        return self.testfn.rescale(np.zeros(self.n), r).scaled_by(r ** (-self.n))

    def translated_scaled(self, a, r: float) -> TestFn:
        """x -> Phi_r(x - a)."""
        return self.testfn.rescale(np.asarray(a, dtype=float), r).scaled_by(r ** (-self.n))

    def directed(self, a, r: float, d: int, component: int) -> TestFn:
        """x -> Phi_r(x - a) e_component, a test function with values in R^d."""
        fn = self.translated_scaled(a, r)
        if d == 1:
            return fn
        atoms = tuple(
            replace(t, coeff=tuple(t.coeff[0] if j == component else 0.0 for j in range(d)))
            for t in fn.atoms)
        return replace(fn, atoms=atoms, d=d)

    def cache_key(self) -> str:
        return _cache_key(self.n, self.degree)


def _angular_moment(p: int, q: int) -> float:
    """integral of cos^2p sin^2q over the circle: 2 B(p + 1/2, q + 1/2).

    Gamma(p + 1/2) = (2p)! sqrt(pi) / (4^p p!), so this is pi times the
    rational 2 (2p)! (2q)! / (4^(p+q) p! q! (p+q)!), whose float the
    integer division rounds correctly.
    """
    f = math.factorial
    return 2 * f(2 * p) * f(2 * q) / (4 ** (p + q) * f(p) * f(q) * f(p + q)) * math.pi


@lru_cache(maxsize=None)
def _moment(n: int, total: MultiIndex) -> float:
    """integral of x^total * bump(x) over B(0,1), by quadrature."""
    if n == 2:
        a, b = total.entries
        if a % 2 or b % 2:
            return 0.0
        # the radial bump factors: angular part is a beta function,
        # radial part is a 1-D integral
        angular = _angular_moment(a // 2, b // 2)
        m = a + b

        def g(pts):
            rho = pts[:, 0]
            out = np.zeros_like(rho)
            inside = rho ** 2 < 1.0 - 1e-12
            out[inside] = rho[inside] ** (m + 1) * np.exp(1.0 / (rho[inside] ** 2 - 1.0))
            return out

        radial, _, _ = integrate_box(g, [0.0], [1.0], (), MOMENT_QUAD)
        return angular * radial

    def f(pts):
        vals = cores.core_eval(n, cores.BUMP, None, MultiIndex((0,) * n), pts)
        for j, e in enumerate(total.entries):
            if e:
                vals = vals * pts[:, j] ** e
        return vals

    v, _, _ = integrate_box(f, [-1.0] * n, [1.0] * n, (), MOMENT_QUAD)
    return v


def _even_indices(n: int, max_order: int):
    out = []
    for m in range(0, max_order + 1):
        for xi in xi_set(n, m):
            if all(e % 2 == 0 for e in xi.entries):
                out.append(xi)
    return out


def _cache_key(n: int, k: int) -> str:
    payload = json.dumps({"n": n, "k": k, "bump": BUMP_ID,
                          "quad_tol": MOMENT_QUAD.rel_tol,
                          "supnorm_rev": SUPNORM_REVISION}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _cache_dir() -> Path:
    env = os.environ.get("PTDIFF_CACHE")
    base = Path(env) if env else Path.home() / ".cache" / "ptdiff"
    return base / "kernels"


def _solve_coefficients(n: int, k: int) -> Dict[Tuple[int, ...], float]:
    ansatz = _even_indices(n, k - 1)
    m = len(ansatz)
    M = np.empty((m, m))
    for i, eta in enumerate(ansatz):
        for j, xi in enumerate(ansatz):
            M[i, j] = _moment(n, xi + eta)
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
    atoms = []
    for xi, c in coeffs.items():
        kind = cores.BUMP if sum(xi) == 0 else cores.BUMP_MONOMIAL
        atoms.append(CoreAtom(kind, xi if sum(xi) else None, (0.0,) * n, 1.0, (c,)))
    return TestFn(n, 1, tuple(atoms), (0.0,) * n, 1.0, label="moment_kernel")


def _verify_residuals(n: int, k: int, fn: TestFn) -> Dict[Tuple[int, ...], float]:
    """|integral of x^xi fn - [xi = 0]| for |xi| < k, one engine job per xi."""
    indices = [xi for m in range(0, k) for xi in xi_set(n, m)]

    def f(pts, job):
        if n == 2:
            # polar coordinates align the quadrature cells with the circular
            # support boundary; a cartesian grid misses a few digits there
            rho, th = pts[:, 0], pts[:, 1]
            x = np.stack([rho * np.cos(th), rho * np.sin(th)], axis=1)
            vals = fn(x)[:, 0] * rho
        else:
            x = pts
            vals = fn(x)[:, 0]
        starts = np.flatnonzero(np.diff(job, prepend=-1))
        for s, e in zip(starts, np.append(starts[1:], len(job))):
            for j, p in enumerate(indices[job[s]].entries):
                if p:
                    vals[s:e] = vals[s:e] * x[s:e, j] ** p
        return vals

    box = ([0.0, 0.0], [1.0, 2.0 * np.pi]) if n == 2 else ([-1.0] * n, [1.0] * n)
    results = integrate_boxes(f, [box + ((),)] * len(indices), VERIFY_QUAD)
    return {xi.entries: abs(v - (1.0 if xi.order == 0 else 0.0))
            for xi, (v, _, _) in zip(indices, results)}


def build_kernel(n: int, k: int, use_cache: bool = True,
                 cache_dir: Optional[Path] = None) -> MomentKernel:
    """Kernel of degree k: unit mass, vanishing moments up to degree k-1.

    Cached to disk keyed by (n, k, bump id, quadrature tolerance); cache
    hits re-verify the residuals before use.
    """
    if not (1 <= k <= MAX_DEGREE):
        raise ValueError(f"kernel degree must be in 1..{MAX_DEGREE}")
    if n > 2:
        raise ValueError("kernel construction is implemented for n <= 2")
    cdir = Path(cache_dir) if cache_dir else _cache_dir()
    cpath = cdir / f"{_cache_key(n, k)}.json"
    coeffs = None
    cached_supnorms = None
    if use_cache and cpath.exists():
        try:
            payload = json.loads(cpath.read_text())
            coeffs = {tuple(e): float(c) for e, c in payload["coeffs"]}
            cached_supnorms = {int(i): float(v)
                               for i, v in payload.get("supnorms", {}).items()}
        except (ValueError, KeyError):
            coeffs = None
            cached_supnorms = None
    if coeffs is None:
        coeffs = _solve_coefficients(n, k)
    fn = _assemble(n, coeffs)
    residuals = _verify_residuals(n, k, fn)
    worst = max(residuals.values(), default=0.0)
    if worst > RESIDUAL_GATE:
        # a corrupted cache entry fails re-verification; rebuild once
        if use_cache and cpath.exists():
            cpath.unlink()
            return build_kernel(n, k, use_cache=use_cache, cache_dir=cache_dir)
        raise KernelConstructionError(f"moment residual {worst:.3e} above gate")
    if cached_supnorms and set(cached_supnorms) == set(range(0, 5)):
        supnorms = cached_supnorms
    else:
        supnorms = {i: seminorm(fn, i) for i in range(0, 5)}
    if use_cache:
        cdir.mkdir(parents=True, exist_ok=True)
        _write_atomic(cpath, json.dumps(
            {"n": n, "k": k, "bump": BUMP_ID,
             "coeffs": [[list(e), c] for e, c in coeffs.items()],
             "supnorms": {str(i): v for i, v in supnorms.items()},
             "residuals": {str(e): r for e, r in residuals.items()}}, indent=1))
    return MomentKernel(n, k, fn, residuals, supnorms)


def _write_atomic(path: Path, text: str) -> None:
    """Write path whole or not at all: a temp file beside it, then os.replace."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def verify_reproduction(kernel: MomentKernel, Q: PolyJet, x, r: float,
                        config: QuadratureConfig = QuadratureConfig()) -> float:
    """|(Phi_r * Q)(x) - Q(x)| by quadrature; the defining property defect."""
    x = np.asarray(x, dtype=float).reshape(kernel.n)
    phi_r = kernel.scaled(r)

    def f(pts):
        # (Phi_r * Q)(x) = integral Phi_r(y) Q(x - y) dy
        return phi_r(pts)[:, 0] * np.atleast_2d(Q.eval(x[None, :] - pts))[:, 0]

    v, _, _ = integrate_box(f, [-r] * kernel.n, [r] * kernel.n, (), config)
    return float(abs(v - Q.eval(x)[0]))
