"""Smooth compactly supported cores with exact derivatives.

Every core is of the form  u^c * exp(f),  f = 1/(s - 1),  s = |u|^2,  on the
open unit ball (zero outside), so each partial derivative is
N(u) / (s-1)^p * exp(f)  with an integer-coefficient polynomial N.  Taking
one more derivative along u_j gives

    N_j = d_j N * (s-1)^2 - 2 u_j N (p (s-1) + 1),   p_j = p + 2.

N is built by this recursion once per (n, core, multi-index), exactly in
Python integers, and cached as a table of monomial exponents and
coefficients.  Evaluation keeps the factored form, with s - 1 computed
directly: an expanded denominator would cancel catastrophically near
|u| = 1.  The powers of u_j and of 1/(s-1) come from repeated
multiplication, and the terms are summed in table order point by point,
so a point's value never depends on the batch it is evaluated in.  Points
go through in row blocks of ROW_BLOCK, which bounds the size of the power
table.  One call can evaluate several (core, derivative) specs at the
same points, sharing |u|^2, 1/(s-1), its exponential and the power
tables; each column equals the call with its spec alone.  A caller that
has tested its points against the clamp passes their |u|^2 and an output
array to fill.

Evaluation clamps to 0 when |u|^2 > 1 - 1e-12: the exponential factor
decays faster than any rational blow-up, so the clamp is below double
precision resolution.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from .tensor import MultiIndex, _powers

BOUNDARY_CLAMP = 1e-12
ROW_BLOCK = 2 ** 12  # points per block of the prefactor evaluation

# core kinds
BUMP = "bump"
BUMP_MONOMIAL = "bump_monomial"

Poly = Dict[Tuple[int, ...], int]  # exponent tuple -> integer coefficient


class UnsupportedOrderError(ValueError):
    """Derivative order above the configured exact-evaluation bound."""


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


@lru_cache(maxsize=None)
def _prefactor(n: int, core_xi: Tuple[int, ...], deriv_xi: Tuple[int, ...]) -> Tuple[Poly, int]:
    """(N, p) with  D^deriv [u^core_xi e^f] = N / (s-1)^p * e^f."""
    if sum(deriv_xi) == 0:
        return {tuple(core_xi): 1}, 0
    j = next(i for i, e in enumerate(deriv_xi) if e > 0)
    prev = list(deriv_xi)
    prev[j] -= 1
    N, p = _prefactor(n, core_xi, tuple(prev))

    def mono(axis, e):
        return tuple(e * (i == axis) for i in range(n))

    zero = mono(0, 0)
    sm1 = {zero: -1, **{mono(i, 2): 1 for i in range(n)}}
    lin = {zero: 1 - p, **{mono(i, 2): p for i in range(n)}}  # p (s-1) + 1
    dN = {e[:j] + (e[j] - 1,) + e[j + 1:]: c * e[j] for e, c in N.items() if e[j]}
    Nj = _poly_mul(dN, _poly_mul(sm1, sm1))
    for e, c in _poly_mul({mono(j, 1): -2}, _poly_mul(N, lin)).items():
        Nj[e] = Nj.get(e, 0) + c
    return {e: c for e, c in Nj.items() if c}, p + 2


@lru_cache(maxsize=None)
def _table(n: int, core_xi: Tuple[int, ...], deriv_xi: Tuple[int, ...]):
    """(terms, top, p): the (float coefficient, exponents) terms of N in a
    fixed order, its largest exponent, and p."""
    N, p = _prefactor(n, core_xi, deriv_xi)
    return tuple((float(c), e) for e, c in sorted(N.items())), max(map(max, N)), p


def sq_norms(pts: np.ndarray) -> np.ndarray:
    """|u|^2 of each row as a sum of squared columns, in column order.

    For n <= 2 this is bit-identical to np.sum(pts ** 2, axis=1), which
    reduces over a short axis far more slowly.
    """
    s = pts[:, 0] * pts[:, 0]
    for j in range(1, pts.shape[1]):
        s += pts[:, j] * pts[:, j]
    return s


def _block_values(u: np.ndarray, sm1: np.ndarray, tables, out: np.ndarray) -> None:
    """N(u) / (s-1)^p * exp(1/(s-1)) of each table into the rows of out.

    1/(s-1), its exponential, its powers and the power table of u are
    computed once for all tables; each row takes the float operations of its
    table evaluated alone.  The caller ignores underflow.
    """
    t = 1.0 / sm1
    et = np.exp(t)
    # term by term from the power table, each power of a coordinate one
    # contiguous row: no (terms, points) temporary
    top = max(tab[1] for tab in tables)
    pw = _powers(u.T, top) if top else None
    tpow = [None, t]  # t^p by repeated multiplication, as far as needed
    for row, (terms, top_m, p) in enumerate(tables):
        if top_m == 0:  # a constant prefactor
            num = terms[0][0]
        else:
            num = np.zeros(len(u))
            for c, e in terms:
                m = pw[e[0], 0]
                for j in range(1, len(e)):
                    m = m * pw[e[j], j]
                num += c * m
        if p:
            while len(tpow) <= p:
                tpow.append(tpow[-1] * t)
            num = num * tpow[p]
        np.multiply(num, et, out=out[row])


@lru_cache(maxsize=None)
def _spec_table(n: int, kind: str, core_xi, deriv_xi: MultiIndex):
    if kind not in (BUMP, BUMP_MONOMIAL):
        raise ValueError(f"unknown core kind {kind!r}")
    return _table(n, tuple(core_xi) if kind == BUMP_MONOMIAL else (0,) * n, deriv_xi.entries)


def core_eval(n: int, kind, core_xi, deriv_xi, pts: np.ndarray, out=None,
              sq=None) -> np.ndarray:
    """D^deriv_xi of the core at points (npts, n) in core coordinates, (npts,).

    With kind, core_xi and deriv_xi three sequences of M specs, the M
    derivatives at the same points, (npts, M): |u|^2, the inside mask,
    1/(s-1), its exponential and the power tables are computed once, and
    every column is bit-identical to the call with its spec alone.

    A caller that has tested its points, as the culled blocks of
    ``testfn.eval_stacked`` do, passes their |u|^2 as sq, every point inside
    the clamp, and out, an array of the result's shape to fill: both or
    neither.
    """
    single = isinstance(deriv_xi, MultiIndex)
    tables = [_spec_table(n, kind, core_xi, deriv_xi)] if single else [
        _spec_table(n, *spec) for spec in zip(kind, core_xi, deriv_xi)]
    pts = np.asarray(pts, dtype=float).reshape(-1, n)
    if sq is not None:  # every point inside
        _row_blocks(pts, sq - 1.0, tables, out[None] if single else out.T)
        return out
    s = sq_norms(pts)
    inside = s < 1.0 - BOUNDARY_CLAMP
    every = inside.all()
    u, sm1 = pts, s - 1.0
    if not every:
        # the inside points by index along the points axis of pts.T: far
        # faster than a boolean or row index of the (points, n) array
        keep = np.flatnonzero(inside)
        u, sm1 = pts.T.take(keep, axis=1).T, sm1[keep]
    vals = np.empty((len(tables), len(u)))
    _row_blocks(u, sm1, tables, vals)
    if not every:
        out = np.zeros((len(tables), len(pts)))
        for row, v in zip(out, vals):
            row[keep] = v
        vals = out
    return vals[0] if single else vals.T


def _row_blocks(u: np.ndarray, sm1: np.ndarray, tables, vals: np.ndarray) -> None:
    """``_block_values`` of the points u, ROW_BLOCK at a time, into the
    columns of vals (tables, points)."""
    if tables:
        with np.errstate(under="ignore"):  # one error state for all row blocks
            for b in range(0, len(u), ROW_BLOCK):
                rows = slice(b, b + ROW_BLOCK)
                _block_values(u[rows], sm1[rows], tables, vals[:, rows])
