"""Smooth compactly supported cores with exact derivatives.

Every core is of the form  q0(u) * exp(1/(|u|^2 - 1))  on the open unit
ball (zero outside), so each partial derivative is  q(u) * exp(1/(|u|^2-1))
with a rational prefactor q.  The prefactors are built symbolically once
per (core, multi-index) and cached as numpy-vectorized callables.

Evaluation clamps to 0 when |u|^2 > 1 - 1e-12: the exponential factor
decays faster than any rational blow-up, so the clamp is below double
precision resolution.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np
import sympy as sp

from .tensor import MultiIndex

BOUNDARY_CLAMP = 1e-12

# core kinds
BUMP = "bump"
BUMP_MONOMIAL = "bump_monomial"


class UnsupportedOrderError(ValueError):
    """Derivative order above the configured exact-evaluation bound."""


@lru_cache(maxsize=None)
def _symbols(n: int):
    return sp.symbols(f"u0:{n}", real=True)


@lru_cache(maxsize=None)
def _prefactor_expr(n: int, core_xi: Tuple[int, ...], deriv_xi: Tuple[int, ...]):
    """Factored prefactor (N, p): D^deriv [u^core_xi * e^f] = N/(s-1)^p * e^f.

    The factored form is load-bearing: the expanded denominator polynomial
    cancels catastrophically near |u| = 1, while (s-1)^{-p} with s-1
    computed directly stays accurate.
    """
    u = _symbols(n)
    s = sum(x ** 2 for x in u)
    if sum(deriv_xi) == 0:
        N = sp.Integer(1)
        for x, e in zip(u, core_xi):
            N *= x ** e
        return sp.expand(N), 0
    j = next(i for i, e in enumerate(deriv_xi) if e > 0)
    prev = list(deriv_xi)
    prev[j] -= 1
    Np, p = _prefactor_expr(n, core_xi, tuple(prev))
    # d/du_j [N/(s-1)^p e^f] = [N_j/(s-1)^{p+2}] e^f with f = 1/(s-1)
    Nj = sp.diff(Np, u[j]) * (s - 1) ** 2 - 2 * u[j] * Np * (p * (s - 1) + 1)
    return sp.expand(Nj), p + 2


@lru_cache(maxsize=None)
def _prefactor_func(n: int, core_xi: Tuple[int, ...], deriv_xi: Tuple[int, ...]):
    u = _symbols(n)
    N, p = _prefactor_expr(n, core_xi, deriv_xi)
    f = sp.lambdify(u, N, modules="numpy")

    def call(pts: np.ndarray) -> np.ndarray:
        cols = [pts[:, j] for j in range(n)]
        num = np.broadcast_to(np.asarray(f(*cols), dtype=float), (pts.shape[0],))
        if p == 0:
            return num.copy()
        sm1 = np.sum(pts ** 2, axis=1) - 1.0  # <= -BOUNDARY_CLAMP inside
        return num * sm1 ** (-p)

    return call


def _exp_factor(s: np.ndarray) -> np.ndarray:
    """exp(1/(s-1)) inside the clamped unit ball, 0 outside."""
    inside = s < 1.0 - BOUNDARY_CLAMP
    out = np.zeros_like(s)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        out[inside] = np.exp(1.0 / (s[inside] - 1.0))
    return out


def core_eval(n: int, kind: str, core_xi: Tuple[int, ...] | None,
              deriv_xi: MultiIndex, pts: np.ndarray) -> np.ndarray:
    """D^deriv_xi of the core at points (npts, n) in core coordinates."""
    if kind not in (BUMP, BUMP_MONOMIAL):
        raise ValueError(f"unknown core kind {kind!r}")
    pts = np.asarray(pts, dtype=float).reshape(-1, n)
    cxi = tuple(core_xi) if kind == BUMP_MONOMIAL else (0,) * n
    s = np.sum(pts ** 2, axis=1)
    inside = s < 1.0 - BOUNDARY_CLAMP
    out = np.zeros(pts.shape[0])
    if inside.any():
        q = _prefactor_func(n, cxi, deriv_xi.entries)(pts[inside])
        out[inside] = q * _exp_factor(s[inside])
    return out


def bump_1d(x: np.ndarray, order: int = 0) -> np.ndarray:
    """Convenience: the order-th derivative of the standard 1-D bump."""
    pts = np.asarray(x, dtype=float).reshape(-1, 1)
    return core_eval(1, BUMP, None, MultiIndex((order,)), pts)
