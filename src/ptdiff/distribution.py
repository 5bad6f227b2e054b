"""Distributions as finite sums of atoms, and the certified pairing engine.

Integration by parts is applied eagerly: a DerivativeAtom never
differentiates the function data, only the (smooth by construction) test
function.  Polynomial atoms met at the same nesting level are merged into
a single jet, so that jet subtraction cancels at the coefficient level.
The merged jet is paired in closed form, as delta atoms are: a test
function is a sum of bump atoms, so a polynomial pairs with it through a
finite sum of bump moments, with no quadrature.

``pair_many`` runs the integrals of function atoms of many pairings in one
quadrature engine, each on its own mesh, pairs all their delta and
polynomial parts in one array pass each, and adds each pairing's parts in
atom order, so every result is the pairing's alone: ``pair`` is the
one-pair case.  A vector pairing (T, (phi_1, ..., phi_M)) of test
functions on one ball integrates each function atom of T as one
M-component engine job, on one mesh, with T evaluated once per point; each
component keeps its own value and bound.

In 2-D, a job whose test functions share one ball, and whose data has no
declared cut line through that ball's open disk, is integrated over the
disk in polar coordinates: ``pair_many`` hands the engine the disk
(``_disk``), and the engine maps its points (``quadrature``), so the
integrand sees x alone.  Every other job is integrated over its support
box, split at the cuts: all 1-D jobs, multi-ball test functions (plateaus
and random sums, whose atoms are culled) and jobs with a cut through the
disk.

One evaluator, ``testfn.eval_stacked``, serves every part in every
dimension: an engine's integrand evaluates the test functions of all its
jobs, M columns per job, with one call per block of points, and component
c of a job is data . phi_c, the scalar integrand of (data, phi_c); the
delta parts take D^xi phi at their locations from one call, one point per
job; and the polynomial parts read their atoms from its atom table,
``testfn.StackedFns``.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import cores
from .funcexpr import ExprAST, SingularitySet, eval_expr, parse
from .momentkernel import moment_table
from .quadrature import QuadratureConfig, integrate_boxes, job_runs, run_points
from .tensor import MultiIndex, PolyJet, taylor_moments, zero_index
from .testfn import ProbeDictionary, StackedFns, eval_stacked

MAX_DERIVATIVE_DEPTH = 8
# (jet, atom) rows per closed-form block, which bounds the temporaries
POLY_BLOCK = 1 << 10


@dataclass(frozen=True)
class FunctionAtom:
    """Locally integrable function given per target coordinate."""

    exprs: Tuple[ExprAST, ...]
    singularities: SingularitySet = SingularitySet()
    limits: Tuple[Tuple[Tuple[float, ...], float], ...] = ()

    @staticmethod
    def from_text(texts: Union[str, Sequence[str]], dims: Optional[int] = None,
                  limits: Sequence[Tuple[Sequence[float], float]] = ()) -> "FunctionAtom":
        if isinstance(texts, str):
            texts = [texts]
        asts = []
        sing = SingularitySet()
        for t in texts:
            ast, s = parse(t, dims)
            asts.append(ast)
            sing = sing.merged(s)
        lims = tuple((tuple(map(float, p)), float(v)) for p, v in limits)
        return FunctionAtom(tuple(asts), sing, lims)

    def eval(self, pts: np.ndarray) -> np.ndarray:
        return np.stack([eval_expr(ast, pts, limits=self.limits) for ast in self.exprs], axis=1)


@dataclass(frozen=True)
class DeltaAtom:
    """c * D^xi delta_a; pairs to (-1)^{|xi|} <c, D^xi phi(a)>."""

    location: Tuple[float, ...]
    xi: Tuple[int, ...]
    coeff: Tuple[float, ...]


@dataclass(frozen=True)
class DerivativeAtom:
    xi: Tuple[int, ...]
    inner: "Distribution"


@dataclass(frozen=True)
class PolynomialAtom:
    jet: PolyJet


Atom = Union[FunctionAtom, DeltaAtom, DerivativeAtom, PolynomialAtom]


@dataclass(frozen=True)
class Distribution:
    n: int
    d: int
    atoms: Tuple[Atom, ...]

    def __post_init__(self):
        if self.d < 1 or self.d > 8:
            raise ValueError("target dimension must be between 1 and 8")
        if _depth(self) > MAX_DERIVATIVE_DEPTH:
            raise ValueError(f"derivative nesting deeper than {MAX_DERIVATIVE_DEPTH}")


def _depth(T: Distribution) -> int:
    best = 0
    for a in T.atoms:
        if isinstance(a, DerivativeAtom):
            best = max(best, 1 + _depth(a.inner))
    return best


@dataclass(frozen=True)
class PairingResult:
    value: float
    abs_error_bound: float
    quadrature_cells: int


def function_distribution(n: int, texts, d: int = 1, limits=()) -> Distribution:
    atom = FunctionAtom.from_text(texts if not isinstance(texts, str) else [texts] * d,
                                  dims=n, limits=limits)
    return Distribution(n, d, (atom,))


def delta_distribution(n: int, location, xi=None, coeff=None, d: int = 1) -> Distribution:
    xi = tuple(xi) if xi is not None else (0,) * n
    coeff = tuple(coeff) if coeff is not None else (1.0,) + (0.0,) * (d - 1)
    loc = tuple(float(v) for v in np.asarray(location, dtype=float).reshape(n))
    return Distribution(n, d, (DeltaAtom(loc, xi, coeff),))


def polynomial_distribution(jet: PolyJet) -> Distribution:
    return Distribution(jet.n, jet.target_dim, (PolynomialAtom(jet),))


def derivative(T: Distribution, xi) -> Distribution:
    """D^xi T; pairing satisfies pair(D^xi T, phi) = (-1)^{|xi|} pair(T, D^xi phi)."""
    xi = xi if isinstance(xi, MultiIndex) else MultiIndex(tuple(xi))
    if xi.order == 0:
        return T
    if all(isinstance(a, PolynomialAtom) for a in T.atoms):
        # differentiate polynomial atoms in closed form; flipping the
        # derivative onto the test function would amplify quadrature error
        # by r^{-|xi|} on rescaled probes for no gain
        return Distribution(T.n, T.d, tuple(
            PolynomialAtom(a.jet.derivative(xi)) for a in T.atoms))
    return Distribution(T.n, T.d, (DerivativeAtom(xi.entries, T),))


def subtract_jet(T: Distribution, P: PolyJet) -> Distribution:
    """T - S where S(phi) = integral <phi, P>."""
    if (P.n, P.target_dim) != (T.n, T.d):
        raise ValueError("jet incompatible with distribution")
    if P.degree_bound == -1:
        return T
    return Distribution(T.n, T.d, T.atoms + (PolynomialAtom(P.scale(-1.0)),))


def _walk(T: Distribution, phis: tuple, part, memo: dict):
    """(values, bounds, cells) of T(phi) for each phi of phis, with
    part(data, phis, split_coords) -> the same for one part.

    data is a DeltaAtom, a FunctionAtom or the merged jet, which comes
    last; memo keeps one merged jet per T, so that the pairings of one T
    share their data.
    """
    if any((phi.n, phi.d) != (T.n, T.d) for phi in phis):
        raise ValueError("test function incompatible with distribution")
    if id(T) not in memo:
        jets = [a.jet for a in T.atoms if isinstance(a, PolynomialAtom)]
        memo[id(T)] = (T, functools.reduce(operator.add, jets) if jets else None)
    merged = memo[id(T)][1]
    last = (merged,) if merged is not None and merged.degree_bound >= 0 else ()
    value, err, cells = np.zeros(len(phis)), np.zeros(len(phis)), 0
    for atom in T.atoms + last:
        if isinstance(atom, (DeltaAtom, PolyJet)):
            v, e, c = part(atom, phis, ())
        elif isinstance(atom, DerivativeAtom):
            xi = MultiIndex(atom.xi)
            v, e, c = _walk(atom.inner, tuple(phi.derivative_view(xi) for phi in phis), part,
                            memo)
            v = (-1.0) ** xi.order * v
        elif isinstance(atom, FunctionAtom):
            v, e, c = part(atom, phis, [atom.singularities.axis_coordinates(j)
                                        for j in range(T.n)])
        elif isinstance(atom, PolynomialAtom):
            continue
        else:
            raise TypeError(f"unknown atom {atom!r}")
        value += v
        err += e
        cells += c
    return value, err, cells


def _polynomial(parts: Sequence[Tuple[PolyJet, object]]) -> List[Tuple[float, float, int]]:
    """(value, bound, 0) of each integral <P, phi>, in closed form.

    With phi = D^delta psi and psi = sum_a coeff_a core((x - c_a) / rho_a),
    whose core is u^core_xi_a bump(u), Taylor expansion of D^delta P at c_a
    gives

        (-1)^|delta| sum_a sum_xi <coeff_a, D^(xi + delta) P(c_a)>
                                  rho_a^(n + |xi|) M(xi + core_xi_a) / xi!

    with M the bump moments of ``moment_table``.  The bound is the sum over
    the terms of their coefficient times the moment's quadrature bound, plus
    64 eps times the term.  It takes each coefficient from |P| recentred
    over |c_a - center|, a majorant that also covers cancellation in the
    recentring.  Each part adds its atoms in atom order, so its result does
    not depend on the other parts.
    """
    results: list = [None] * len(parts)
    shapes: dict = {}  # jets of one dimension, target and degree stack
    for i, (P, _) in enumerate(parts):
        shapes.setdefault((P.n, P.target_dim, P.degree_bound), []).append(i)
    for (n, _, k), idx in shapes.items():
        st = StackedFns.of([(parts[i][1], zero_index(n)) for i in idx])
        jets = np.stack([parts[i][0].coeffs for i in idx])
        h = st.centers - np.stack([parts[i][0].center for i in idx])[st.job]
        top = max((sum(core or ()) for _, core, _ in st.groups), default=0)
        M, M_bound = moment_table(n, k + top)
        M_abs = M_bound + 64 * np.finfo(float).eps * np.abs(M)
        terms = np.zeros((len(st.job), 2))  # value and bound of each (part, atom)
        for g, (kind, core, delta) in enumerate(st.groups):
            c = core if kind == cores.BUMP_MONOMIAL else (0,) * n
            sel = np.flatnonzero(st.group == g)
            for rows in (sel[s:s + POLY_BLOCK] for s in range(0, len(sel), POLY_BLOCK)):
                rho, coeff, C = st.radii[rows], st.coeffs[rows], jets[st.job[rows]]
                S = taylor_moments(C, k, h[rows], delta.entries, c, rho, M)
                A = taylor_moments(np.abs(C), k, np.abs(h[rows]), delta.entries, c, rho, M_abs)
                w = rho ** n
                terms[rows, 0] = (-1.0) ** delta.order * w * np.sum(S * coeff, axis=1)
                terms[rows, 1] = w * np.sum(A * np.abs(coeff), axis=1)
        totals = np.zeros((len(idx), 2))
        np.add.at(totals, st.job, terms)
        for i, (v, e) in zip(idx, totals.tolist()):
            results[i] = (v, e, 0)
    return results


def _disk(phis: tuple, splits) -> Optional[Tuple[Tuple[float, ...], float]]:
    """The ball (c, rho) that the atoms of the 2-D test functions phis
    share, when no cut line of the data crosses its open disk: the job is
    integrated over that disk in polar coordinates.  None: over the support
    box."""
    if phis[0].n != 2:
        return None
    balls = {phi.ball[:2] if phi.ball else None for phi in phis}
    if len(balls) != 1 or None in balls:
        return None
    ((c, rho),) = balls
    if any(abs(cut - c[a]) < rho for a in range(2) for cut in splits[a]):
        return None
    return c, rho


def _integrand(jobs: list, d: int):
    """The engine's f(pts, job) -> (npts, M) for jobs (data, phis, splits)
    with M test functions each: column c is data times phis[c].  The test
    functions of all jobs are one stack of M-column jobs, evaluated by one
    ``eval_stacked`` call per block of points, and data shared by jobs is
    evaluated once per point.
    """
    stack = StackedFns.of([[(phi, zero_index(phi.n)) for phi in phis] for _, phis, _ in jobs])
    data_values = _shared_data(jobs, d)

    def integrand(pts, job):
        phi = eval_stacked(stack, pts, job).transpose(1, 0, 2)  # (M, points, d)
        # component-major, as the engine sums
        return np.einsum("cij,ij->ci", phi, data_values(pts, job)).T
    return integrand


def _shared_data(jobs: list, d: int):
    """(pts, job) -> each job's data at its points, evaluated once per point
    for the jobs that share their data, which select their points by the
    runs of job."""
    index: dict = {}
    which_data = np.array([index.setdefault(id(data), len(index)) for data, _, _ in jobs])
    data = list({id(data): data for data, _, _ in jobs}.values())

    def values(pts, job):
        if len(data) == 1:
            return data[0].eval(pts)
        starts, lengths, run_job = job_runs(job)
        which = which_data[run_job]
        fv = np.empty((len(pts), d))
        for g in np.flatnonzero(np.bincount(which, minlength=len(data))):
            sel = run_points(starts[which == g], lengths[which == g])
            fv[sel] = data[g].eval(pts[sel])
        return fv
    return values


def pair_many(pairs: Sequence[Tuple[Distribution, object]],
              config: QuadratureConfig = QuadratureConfig(),
              strict: bool = True) -> list:
    """T(phi) with a certified quadrature error bound, for many (T, phi).

    Each phi is a TestFn, a derivative view (a TestFn with an offset)
    included; it must carry enough exact derivative orders for any
    DerivativeAtom nesting in its T.  A scalar pair gives a PairingResult.

    A vector pair (T, (phi_1, ..., phi_M)) needs test functions whose atoms
    share one ball, and one support ball.  The integral of each function
    atom of T against all of them is one M-component engine job.  It gives
    a tuple of M PairingResults, each with its own value and bound, and the
    cells of the shared meshes.  Every result, scalar or vector, is the
    pair's alone, whatever else the call holds.
    """
    plans = [(T, phi if isinstance(phi, tuple) else (phi,)) for T, phi in pairs]
    for _, phis in plans:
        balls = {phi.ball for phi in phis}
        if len(phis) > 1 and (None in balls or len(balls) > 1):
            raise ValueError("the test functions of a vector pair must share one ball")
    parts: list = []
    memo: dict = {}
    for T, phis in plans:  # plan: collect the parts
        _walk(T, phis, lambda *part: parts.append(part) or (0.0, 0.0, 0), memo)
    results: list = [None] * len(parts)
    deltas: dict = {}  # per (n, d), (part, component, phi) for the phis of the delta parts
    for i, (data, phis, _) in enumerate(parts):
        if isinstance(data, DeltaAtom):
            results[i] = (np.zeros(len(phis)), np.zeros(len(phis)), 0)
            deltas.setdefault((phis[0].n, phis[0].d), []).extend(
                (i, c, phi) for c, phi in enumerate(phis))
    for group in deltas.values():  # D^xi phi at the delta's location, one point per job
        atoms = [parts[i][0] for i, _, _ in group]
        st = StackedFns.of([(phi, MultiIndex(a.xi)) for a, (_, _, phi) in zip(atoms, group)])
        at = eval_stacked(st, np.array([a.location for a in atoms]), np.arange(len(group)))
        for a, (i, c, _), dval in zip(atoms, group, at[:, 0]):
            results[i][0][c] = (-1.0) ** sum(a.xi) * float(np.dot(np.asarray(a.coeff), dval))
    poly = [(i, phi) for i, (data, phis, _) in enumerate(parts) if isinstance(data, PolyJet)
            for phi in phis]
    values = iter(_polynomial([(parts[i][0], phi) for i, phi in poly]))
    for i in dict.fromkeys(i for i, _ in poly):
        value, bound = np.array([next(values)[:2] for _ in parts[i][1]]).T
        results[i] = (value, bound, 0)
    shapes: dict = {}  # the integrals: one engine per (n, d, M)
    for i, (_, phis, _) in enumerate(parts):
        if results[i] is None:
            shapes.setdefault((phis[0].n, phis[0].d, len(phis)), []).append(i)
    for (_, d, _), idx in shapes.items():
        jobs = [parts[i] for i in idx]
        boxes = [(np.subtract(phis[0].support_center, phis[0].support_radius),
                  np.add(phis[0].support_center, phis[0].support_radius), splits,
                  _disk(phis, splits)) for _, phis, splits in jobs]
        for i, result in zip(idx, integrate_boxes(_integrand(jobs, d), boxes, config, strict)):
            results[i] = result
    done = iter(results)
    out = []
    for (T, phis), (_, phi) in zip(plans, pairs):
        value, err, cells = _walk(T, phis, lambda *part: next(done), memo)
        res = tuple(PairingResult(float(v), float(e), cells) for v, e in zip(value, err))
        out.append(res if isinstance(phi, tuple) else res[0])
    return out


def pair(T: Distribution, phi, config: QuadratureConfig = QuadratureConfig(),
         strict: bool = True) -> PairingResult:
    """T(phi) with a certified quadrature error bound: one pairing of pair_many."""
    return pair_many([(T, phi)], config, strict)[0]


def dual_norm(T: Distribution, K: Tuple[Sequence[float], float], i: int,
              probes: ProbeDictionary,
              config: QuadratureConfig = QuadratureConfig()) -> float:
    """The largest |T(phi)| over the dictionary members rescaled into K:
    the dictionary's estimate of sup{ T(phi) : phi in D_K, nu^i_K(phi) <= 1 },
    not a certified bound of it.

    Members are rescaled into K and scaled by radius^i, which keeps
    nu^i = 1.  It is a lower bound of the sup only up to each pairing's
    quadrature bound and the normalizer excess (``ProbeDictionary``).
    """
    center = np.asarray(K[0], dtype=float).reshape(T.n)
    radius = float(K[1])
    best = 0.0
    for res in pair_many([(T, member.rescale(center, radius).scaled_by(radius ** i))
                          for member in probes.members], config):
        best = max(best, abs(res.value))
    return best
