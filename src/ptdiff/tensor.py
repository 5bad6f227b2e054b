"""Multi-indices, polynomial jets, and operator norms of symmetric tensors.

The multi-indices of order <= k in dimension n are the rows of a cached
table, graded by order (``xi_set`` order within one), so each order is a
contiguous block and a row keeps its place in every larger table.  A
``PolyJet`` of degree k holds one (N, d) coefficient array over that table,
row ``xi`` holding ``D^xi P(center)``.  Its order-m block, ``tensor(m)``,
is the symmetric tensor D^m P(center), row ``xi`` its value on the basis
monomial ``e^xi``; multinomial weights are applied on evaluation.
Evaluation sums a monomial table against the array term by term,
differentiation is an index gather and recentering a shift matrix.  Many
jets stack as (B, N, d), zero-padded to a common degree (``stack_jets``);
``recenter_jets``, ``eval_jets`` and ``jet_opnorms`` act on such a stack,
and the first two give each jet's ``PolyJet`` result bit for bit;
``taylor_moments`` pairs a stack's Taylor expansions with a table of
moments laid out over the same rows.
``opnorms`` is the one operator norm sup_{|v|=1} |psi(v, ..., v)|, over a
stack of blocks; ``opnorm_bounds`` is its one-block case.  No other module
reads the row layout, except that ``momentkernel.moment_table`` lays its
moments out over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True, order=True)
class MultiIndex:
    """An n-termed sequence of nonnegative integers."""

    entries: Tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) < 1:
            raise ValueError("multi-index needs dimension >= 1")
        if any(e < 0 or int(e) != e for e in self.entries):
            raise ValueError(f"entries must be nonnegative integers: {self.entries}")
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def order(self) -> int:
        return sum(self.entries)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        self._check_dim(other)
        return MultiIndex(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        self._check_dim(other)
        return MultiIndex(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def dominates(self, other: "MultiIndex") -> bool:
        """Componentwise ``other <= self``."""
        self._check_dim(other)
        return all(a >= b for a, b in zip(self.entries, other.entries))

    def _check_dim(self, other: "MultiIndex") -> None:
        if self.n != other.n:
            raise ValueError("dimension mismatch between multi-indices")


def unit_index(n: int, j: int) -> MultiIndex:
    """The multi-index e_j in dimension n (0-based axis j)."""
    e = [0] * n
    e[j] = 1
    return MultiIndex(tuple(e))


def zero_index(n: int) -> MultiIndex:
    return MultiIndex((0,) * n)


@lru_cache(maxsize=None)
def xi_set(n: int, m: int) -> Tuple[MultiIndex, ...]:
    """All multi-indices of order m in dimension n, reverse-lexicographic.

    The order is deterministic:  (2,0), (1,1), (0,2)  for n=2, m=2.
    Cardinality is binomial(m+n-1, n-1).
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if m < 0:
        raise ValueError("order must be >= 0")
    if n == 1:
        return (MultiIndex((m,)),)
    out = []
    for first in range(m, -1, -1):
        for rest in xi_set(n - 1, m - first):
            out.append(MultiIndex((first,) + rest.entries))
    return tuple(out)


def _size(n: int, k: int) -> int:
    """Number of multi-indices of order <= k (0 for k = -1)."""
    return math.comb(k + n, n)


def _block(n: int, m: int) -> slice:
    """Rows of order exactly m."""
    return slice(_size(n, m - 1), _size(n, m))


def _frozen(a: np.ndarray) -> np.ndarray:
    """Cached arrays are shared by every caller, so they are made read-only."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _table(n: int, k: int) -> np.ndarray:
    """(N, n) integer rows of the multi-indices of order <= k."""
    rows = [xi.entries for m in range(k + 1) for xi in xi_set(n, m)]
    return _frozen(np.array(rows, dtype=np.int64).reshape(-1, n))


@lru_cache(maxsize=None)
def _row(n: int, k: int) -> Dict[Tuple[int, ...], int]:
    return {tuple(r): i for i, r in enumerate(_table(n, k).tolist())}


@lru_cache(maxsize=None)
def _inv_factorial(n: int, k: int) -> np.ndarray:
    """1 / xi! over the rows."""
    fact = [math.prod(map(math.factorial, r)) for r in _table(n, k).tolist()]
    return _frozen(1.0 / np.array(fact, dtype=float))


def _multinomials(n: int, m: int) -> np.ndarray:
    """m! / xi! over the order-m rows."""
    return math.factorial(m) * _inv_factorial(n, m)[_block(n, m)]


@lru_cache(maxsize=None)
def _shift(n: int, k: int, o: Tuple[int, ...]) -> np.ndarray:
    """Row of zeta + o in the degree-(k + |o|) table, for each row zeta of order <= k."""
    rows = _row(n, k + sum(o))
    return _frozen(np.array([rows[tuple(r)] for r in (_table(n, k) + o).tolist()],
                            dtype=np.int64))


@lru_cache(maxsize=None)
def _differences(n: int, k: int) -> np.ndarray:
    """(N, N): row of t_c - t_r, or N where t_c does not dominate t_r."""
    t = _table(n, k)
    rows = _row(n, k)
    out = [[rows.get(tuple(e), len(t)) for e in (t - a).tolist()] for a in t]
    return _frozen(np.array(out, dtype=np.int64).reshape(len(t), len(t)))


def _powers(x: np.ndarray, top: int) -> np.ndarray:
    """x^e for e = 0 ... top, shape (top + 1,) + x.shape.

    Repeated multiplication, much faster than a float power.
    """
    p = np.empty((max(top, 0) + 1,) + x.shape)
    p[0] = 1.0
    for e in range(1, top + 1):
        np.multiply(p[e - 1], x, out=p[e])
    return p


def _monomials(x: np.ndarray, exps: np.ndarray, top: int) -> np.ndarray:
    """prod_j x_j^exps[r, j] for each row r of exps (entries <= top).

    x has shape (..., n); the result has shape (R, ...).
    """
    p = _powers(x, top)
    out = p[exps[:, 0], ..., 0]
    for j in range(1, exps.shape[1]):
        out *= p[exps[:, j], ..., j]
    return out


def _taylor(h: np.ndarray, k: int, coeffs: np.ndarray) -> np.ndarray:
    """sum_xi h^xi / xi! coeffs[xi] for each row of h (P, n); returns (P, d).

    coeffs is (N_k, d), one jet for every row, or (P, N_k, d), one per row.
    Term by term in table order, not a matrix product: BLAS would add the
    terms in an order that depends on the batch, and so the last bits of a
    point.
    """
    n = h.shape[1]
    mono = _monomials(h, _table(n, k), k)
    weights = _inv_factorial(n, k)[:, None] * coeffs
    out = np.zeros((h.shape[0], coeffs.shape[-1]))
    for r, m in enumerate(mono):
        out += m[:, None] * weights[..., r, :]
    return out


def _recenter(coeffs: np.ndarray, k: int, h: np.ndarray) -> np.ndarray:
    """Degree-k jets (B, N_k, d) re-expanded at offsets h (B, n) from their centers.

    One stacked product with the shift matrices h^(t_c - t_r) / (t_c - t_r)!.
    They are made C-contiguous: np.matmul then makes the same BLAS call for
    every jet of the stack, where a strided stack would take numpy's own
    loop, which adds the terms in another order.
    """
    n = h.shape[1]
    taylor = (_monomials(h, _table(n, k), k) * _inv_factorial(n, k)[:, None]).T
    shift = np.concatenate([taylor, np.zeros((h.shape[0], 1))], axis=1)[:, _differences(n, k)]
    return np.matmul(np.ascontiguousarray(shift), coeffs)


def taylor_moments(coeffs: np.ndarray, k: int, h: np.ndarray, o: Tuple[int, ...],
                   c: Tuple[int, ...], scale: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """sum_xi scale^|xi| / xi! D^(xi + o) P_b(a_b + h_b) moments[xi + c] for each jet P_b.

    The jets coeffs (B, N_k, d) of degree k are centred at a_b and taken at
    offsets h (B, n), with scales (B,); moments runs over the rows of
    order <= k - |o| + |c|.  Each row of the result (B, d) adds its terms
    in table order, so it does not depend on the other rows.
    """
    n = h.shape[1]
    kd = k - sum(o)
    out = np.zeros((h.shape[0], coeffs.shape[-1]))
    if kd < 0:
        return out
    at = _recenter(coeffs, k, h)[:, _shift(n, kd, o)]
    w = scale[:, None] ** _table(n, kd).sum(axis=1) \
        * (_inv_factorial(n, kd) * moments[_shift(n, kd, c)])
    for r in range(at.shape[1]):
        out += w[:, r, None] * at[:, r]
    return out


def stack_jets(jets: Sequence[PolyJet], n: int, d: int, k: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(centers (B, n), coeffs (B, N_k, d), degrees (B,)) of jets of degree <= k.

    Each jet's rows above its own degree are zero.
    """
    coeffs = np.zeros((len(jets), _size(n, k), d))
    for row, P in zip(coeffs, jets):
        row[:len(P.coeffs)] = P.coeffs
    centers = np.array([P.center for P in jets], dtype=float).reshape(len(jets), n)
    return centers, coeffs, np.array([P.degree_bound for P in jets], dtype=np.int64)


def recenter_jets(coeffs: np.ndarray, degrees: np.ndarray, h: np.ndarray) -> np.ndarray:
    """A stack of jets (B, N_k, d) of degrees (B,) re-expanded at offsets h (B, n).

    A matrix product's last bits depend on its size, so the jets go by
    degree, each through shift matrices of its own size: row b equals
    ``PolyJet.recenter`` of jet b bit for bit.
    """
    out = np.zeros_like(coeffs)
    for k in np.unique(degrees).tolist():
        sel = degrees == k
        size = _size(h.shape[1], k)
        out[sel, :size] = _recenter(coeffs[sel, :size], k, h[sel])
    return out


def eval_jets(coeffs: np.ndarray, degrees: np.ndarray, centers: np.ndarray, X: np.ndarray,
              xi: MultiIndex) -> np.ndarray:
    """D^xi P_p(X[p]) for a stack of jets P_p: coeffs (P, N_k, d), degrees (P,), centers (P, n).

    The jets go by degree, each evaluated at its own degree: row p equals
    ``P_p.derivative(xi).eval(X[p])`` bit for bit, and the zero rows above a
    jet's degree add nothing, not even 0 * inf where a monomial overflows.
    """
    n = X.shape[1]
    out = np.zeros((X.shape[0], coeffs.shape[-1]))
    for k in np.unique(degrees).tolist():
        sel = degrees == k
        kd = max(k - xi.order, -1)
        out[sel] = _taylor(X[sel] - centers[sel], kd, coeffs[sel][:, _shift(n, kd, xi.entries)])
    return out


SCAN_DIRECTIONS = 720
_CHUNK = 2 ** 18  # elements in one (tensors x directions) block of the scan


def _angular_monomials(thetas: np.ndarray, m: int) -> np.ndarray:
    """m!/xi! cos^xi_1 sin^xi_2 over the order-m rows; shape (N_m,) + thetas.shape."""
    v = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
    weights = _multinomials(2, m).reshape((-1,) + (1,) * thetas.ndim)
    return _monomials(v, _table(2, m)[_block(2, m)], m) * weights


def _norms(v: np.ndarray, B: int, d: int) -> np.ndarray:
    """Euclidean norms over R^d of values laid out as (B * d, ...) or (B, d, ...)."""
    v = v.reshape(B, d, -1)
    return np.abs(v[:, 0]) if d == 1 else np.linalg.norm(v, axis=1)


def opnorms(n: int, degree: int, coeffs: np.ndarray, rel_tol: Optional[float] = 1e-6,
            directions: int = SCAN_DIRECTIONS) -> Tuple[np.ndarray, bool]:
    """Operator norms sup_{|v|=1} |psi(v, ..., v)| of B tensors, coeffs (B, N_m, d).

    Returns (values, exact_path).  Degree 0 and n = 1 are exact.  For n = 2
    the best of ``directions`` equispaced angles is refined, unless rel_tol
    is None, until a step gains less than rel_tol relatively; each value is
    attained at a unit vector, so it is a lower bound.  For n > 2 the value
    is the weighted l1 upper bound and exact_path is False.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if degree == 0 or n == 1:
        return np.linalg.norm(coeffs[:, 0, :], axis=1), True
    if n > 2:
        return np.linalg.norm(coeffs, axis=2) @ _multinomials(n, degree), False
    B, _, d = coeffs.shape
    W = coeffs.transpose(0, 2, 1)  # (B, d, N_m)
    flat = np.ascontiguousarray(W).reshape(B * d, -1)
    thetas = np.linspace(0.0, 2 * np.pi, directions, endpoint=False)
    mono = _angular_monomials(thetas, degree)
    best = np.zeros(B)
    arg = np.zeros(B, dtype=np.int64)
    # a screen takes one direction per product, whatever B, so that each
    # tensor's value does not depend on the others: its caller's blocks
    # bound the temporaries
    step = 1 if rel_tol is None else max(1, _CHUNK // (B * d))
    for s in range(0, directions, step):
        vals = _norms(flat @ mono[:, s:s + step], B, d)
        top = vals.max(axis=1)
        if rel_tol is not None:
            better = top > best
            arg[better] = s + vals[better].argmax(axis=1)
        np.maximum(best, top, out=best)
    if rel_tol is None:
        return best, True
    center = thetas[arg]
    width = 2 * np.pi / directions
    while width > 1e-14:
        local = center[:, None] + width * np.linspace(-1.0, 1.0, 33)  # (B, 33)
        vals = _norms(W @ _angular_monomials(local, degree).transpose(1, 0, 2), B, d)
        j = vals.argmax(axis=1)
        top = vals[np.arange(B), j]
        center = local[np.arange(B), j]
        done = top - best <= rel_tol * np.maximum(top, 1e-300)
        best = np.maximum(best, top)
        if done.all():
            break
        width /= 8.0
    return best, True


def jet_opnorms(n: int, k: int, coeffs: np.ndarray) -> np.ndarray:
    """Operator norms of the order-m parts, m = 0..k, of jets coeffs (B, N_k, d); (B, k+1).

    One ``opnorms`` call per order over the whole stack.
    """
    out = np.empty((coeffs.shape[0], k + 1))
    for m in range(k + 1):
        out[:, m], _ = opnorms(n, m, coeffs[:, _block(n, m)])
    return out


def opnorm_bounds(n: int, m: int, block: np.ndarray, rel_tol: float = 1e-6
                  ) -> Tuple[float, bool]:
    """(operator norm, exact_path) of one order-m tensor, its (N_m, d) block."""
    vals, exact = opnorms(n, m, np.asarray(block)[None], rel_tol)
    return float(vals[0]), exact


@dataclass(frozen=True)
class PolyJet:
    """Polynomial of degree <= k stored through its derivatives at a center.

    ``coeffs`` has shape (N, d), row ``xi`` holding ``D^xi P(center)``;
    evaluation is the exact Taylor form ``P(x) = sum_xi (x-a)^xi / xi!
    D^xi P(a)``.  ``degree_bound = -1`` encodes the zero polynomial.
    """

    n: int
    target_dim: int
    center: np.ndarray
    degree_bound: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.degree_bound < -1:
            raise ValueError("degree bound must be >= -1")
        object.__setattr__(self, "center",
                           np.asarray(self.center, dtype=float).reshape(self.n))
        shape = (_size(self.n, self.degree_bound), self.target_dim)
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float).reshape(shape))

    @staticmethod
    def zero(n: int, target_dim: int = 1, center=None) -> "PolyJet":
        c = np.zeros(n) if center is None else center
        return PolyJet(n, target_dim, c, -1, np.zeros((0, target_dim)))

    @staticmethod
    def from_coeff_map(n: int, center, coeffs: Mapping[Tuple[int, ...], float], target_dim: int = 1) -> "PolyJet":
        """Build from a map multi-index -> D^xi P(center) (scalars for d=1)."""
        keys = [MultiIndex(tuple(key)) for key in coeffs]
        if any(xi.n != n for xi in keys):
            raise ValueError(f"multi-indices must have {n} entries")
        k = max((xi.order for xi in keys), default=-1)
        out = np.zeros((_size(n, k), target_dim))
        out[[_row(n, k)[xi.entries] for xi in keys]] = np.array(
            [np.atleast_1d(np.asarray(v, dtype=float)) for v in coeffs.values()]
        ).reshape(len(keys), target_dim)
        return PolyJet(n, target_dim, center, k, out)

    def coefficient(self, xi: MultiIndex) -> np.ndarray:
        """D^xi P(center); zero beyond the degree bound."""
        if xi.order > self.degree_bound:
            return np.zeros(self.target_dim)
        return self.coeffs[_row(self.n, xi.order)[xi.entries]]

    def tensor(self, m: int) -> np.ndarray:
        """D^m P(center) as its (N_m, d) block in ``xi_set`` order; zero beyond the degree bound."""
        if m > self.degree_bound:
            return np.zeros((len(xi_set(self.n, m)), self.target_dim))
        return self.coeffs[_block(self.n, m)]

    def eval(self, x) -> np.ndarray:
        """Evaluate at a point (n,) or batch (npts, n); returns (d,) or (npts, d)."""
        x = np.asarray(x, dtype=float)
        out = _taylor(x.reshape(-1, self.n) - self.center, self.degree_bound, self.coeffs)
        return out[0] if x.ndim == 1 else out

    def derivative(self, xi: MultiIndex) -> "PolyJet":
        """The jet of D^xi P: degree drops by |xi|, coefficients shift."""
        if xi.n != self.n:
            raise ValueError("dimension mismatch")
        k = max(self.degree_bound - xi.order, -1)
        return PolyJet(self.n, self.target_dim, self.center, k,
                       self.coeffs[_shift(self.n, k, xi.entries)])

    def recenter(self, new_center) -> "PolyJet":
        """Same polynomial function, derivatives re-expanded at new_center."""
        b = np.asarray(new_center, dtype=float).reshape(self.n)
        k = self.degree_bound
        coeffs = _recenter(self.coeffs[None], k, (b - self.center)[None])[0]
        return PolyJet(self.n, self.target_dim, b, k, coeffs)

    def truncate(self, k: int) -> "PolyJet":
        """Keep derivatives of order <= k."""
        k = max(min(k, self.degree_bound), -1)
        return PolyJet(self.n, self.target_dim, self.center, k, self.coeffs[:_size(self.n, k)])

    def __add__(self, other: "PolyJet") -> "PolyJet":
        if (self.n, self.target_dim) != (other.n, other.target_dim):
            raise ValueError("incompatible jets")
        other = other.recenter(self.center)
        k = max(self.degree_bound, other.degree_bound)
        out = np.zeros((_size(self.n, k), self.target_dim))
        out[:len(self.coeffs)] += self.coeffs
        out[:len(other.coeffs)] += other.coeffs
        return PolyJet(self.n, self.target_dim, self.center, k, out)

    def scale(self, c: float) -> "PolyJet":
        return PolyJet(self.n, self.target_dim, self.center, self.degree_bound, c * self.coeffs)

    def coeff_map(self) -> Dict[Tuple[int, ...], np.ndarray]:
        return dict(zip(map(tuple, _table(self.n, self.degree_bound).tolist()), self.coeffs))
