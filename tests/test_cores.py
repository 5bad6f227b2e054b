"""Bump cores: integer prefactor tables, accuracy, row blocks, import cost."""

import subprocess
import sys
from functools import lru_cache

import mpmath
import numpy as np
import pytest
import sympy as sp

from ptdiff import cores
from ptdiff.tensor import xi_set

# (n, core exponents); all-zero exponents mean the plain bump
CORES = [(1, (0,)), (1, (1,)), (1, (2,)), (2, (0, 0)), (2, (1, 1)), (2, (2, 0))]


def _kind(cxi):
    return cores.BUMP_MONOMIAL if any(cxi) else cores.BUMP


@lru_cache(maxsize=None)
def _symbols(n):
    return sp.symbols(f"u0:{n}", real=True)


@lru_cache(maxsize=None)
def _prefactor_expr(n, core_xi, deriv_xi):
    """The symbolic recursion: D^deriv [u^core_xi e^f] = N/(s-1)^p e^f."""
    u = _symbols(n)
    s = sum(x ** 2 for x in u)
    if sum(deriv_xi) == 0:
        return sp.expand(sp.Mul(*[x ** e for x, e in zip(u, core_xi)])), 0
    j = next(i for i, e in enumerate(deriv_xi) if e > 0)
    prev = list(deriv_xi)
    prev[j] -= 1
    N, p = _prefactor_expr(n, core_xi, tuple(prev))
    Nj = sp.diff(N, u[j]) * (s - 1) ** 2 - 2 * u[j] * N * (p * (s - 1) + 1)
    return sp.expand(Nj), p + 2


def _lambdified(n, cxi, dxi, pts):
    """The evaluation cores used before its tables: a lambdified N, float powers."""
    N, p = _prefactor_expr(n, cxi, dxi)
    f = sp.lambdify(_symbols(n), N, modules="numpy")
    num = np.broadcast_to(np.asarray(f(*pts.T), dtype=float), (len(pts),))
    sm1 = np.sum(pts ** 2, axis=1) - 1.0
    return num * sm1 ** (-p) * np.exp(1.0 / sm1)


def _reference(n, cxi, dxi, pts):
    """The same quantity at 50 digits."""
    N, p = _prefactor_expr(n, cxi, dxi)
    terms = [(e, int(c)) for e, c in sp.Poly(N, *_symbols(n)).terms()]
    out = []
    with mpmath.workdps(50):
        for row in pts:
            u = [mpmath.mpf(float(x)) for x in row]
            sm1 = sum(x * x for x in u) - 1
            num = mpmath.fsum(c * mpmath.fprod(x ** k for x, k in zip(u, e)) for e, c in terms)
            out.append(float(num / sm1 ** p * mpmath.exp(1 / sm1)))
    return np.array(out)


def _ball_points(n, which, seed, count=128):
    """Random points in the ball, or points 1e-3 ... 1e-1 inside its sphere."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    if which == "random":
        r = rng.uniform(0.0, 1.0, size=count) ** (1.0 / n)
    else:
        r = 1.0 - 10.0 ** rng.uniform(-3.0, -1.0, size=count)
    return v * r[:, None]


class TestPrefactorTables:
    @pytest.mark.parametrize("n,cxi", CORES)
    def test_tables_equal_sympy(self, n, cxi):
        for m in range(7):
            for xi in xi_set(n, m):
                N, p = _prefactor_expr(n, cxi, xi.entries)
                want = {e: int(c) for e, c in sp.Poly(N, *_symbols(n)).terms()}
                got, q = cores._prefactor(n, cxi, xi.entries)
                assert (got, q) == (want, p), (cxi, xi.entries)

    def test_float_table(self):
        # D^2 e^f in 1-D is (6u^4 - 2) / (u^2 - 1)^4 e^f
        assert cores._table(1, (0,), (2,)) == (((-2.0, (0,)), (6.0, (4,))), 4, 4)


class TestAccuracy:
    @pytest.mark.parametrize("which", ["random", "boundary"])
    @pytest.mark.parametrize("n,cxi", CORES)
    def test_error_within_twice_lambdified(self, n, cxi, which):
        # per order, the worst error over its multi-indices, relative to max|v|;
        # below one unit in the last place both are rounding alone
        pts = _ball_points(n, which, seed=sum(cxi) + 10 * n)
        for m in range(7):
            new = old = 0.0
            for xi in xi_set(n, m):
                ref = _reference(n, cxi, xi.entries, pts)
                scale = np.max(np.abs(ref))
                got = cores.core_eval(n, _kind(cxi), cxi, xi, pts)
                new = max(new, np.max(np.abs(got - ref)) / scale)
                old = max(old, np.max(np.abs(_lambdified(n, cxi, xi.entries, pts) - ref)) / scale)
            assert new <= 2.0 * max(old, 2.0 ** -52), (m, new, old)
            assert new <= 1e-10


class TestEvaluation:
    @pytest.mark.parametrize("n,cxi", CORES)
    def test_row_blocks_change_nothing(self, n, cxi, monkeypatch):
        rng = np.random.default_rng(n)
        pts = rng.uniform(-1.1, 1.1, size=(1000, n))
        xis = [xi for m in range(4) for xi in xi_set(n, m)]
        monkeypatch.setattr(cores, "ROW_BLOCK", len(pts))
        whole = [cores.core_eval(n, _kind(cxi), cxi, xi, pts) for xi in xis]
        monkeypatch.setattr(cores, "ROW_BLOCK", 97)
        for xi, want in zip(xis, whole):
            assert np.array_equal(cores.core_eval(n, _kind(cxi), cxi, xi, pts), want)
            one = cores.core_eval(n, _kind(cxi), cxi, xi, pts[5])
            assert np.array_equal(one, want[5:6])

    @pytest.mark.parametrize("n", [1, 2])
    def test_fused_columns_bit_identical(self, n, monkeypatch):
        # every core of CORES in n (bump and bump monomials), with every
        # derivative up to order 4, in one call: each column is its one-spec
        # call, across row blocks and with points outside the ball
        monkeypatch.setattr(cores, "ROW_BLOCK", 97)
        pts = np.random.default_rng(11 + n).uniform(-1.1, 1.1, size=(700, n))
        specs = [(_kind(cxi), cxi if any(cxi) else None, xi)
                 for m, cxi in CORES if m == n for o in range(5) for xi in xi_set(n, o)]
        fused = cores.core_eval(n, *zip(*specs), pts)
        assert fused.shape == (len(pts), len(specs))
        for col, spec in enumerate(specs):
            assert np.array_equal(fused[:, col], cores.core_eval(n, *spec, pts)), spec
        assert np.array_equal(cores.core_eval(n, *zip(*specs), pts[3]), fused[3:4])
        with pytest.raises(ValueError):
            cores.core_eval(n, ("bump", "cone"), (None, None), specs[:2][0][2:] * 2, pts)

    @pytest.mark.parametrize("n", [1, 2])
    def test_sq_norms_bit_identical(self, n):
        pts = np.random.default_rng(3).normal(size=(500, n))
        assert np.array_equal(cores.sq_norms(pts), np.sum(pts ** 2, axis=1))

    def test_clamp_and_non_finite(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.6, 0.8], [np.nan, 0.0],
                        [np.inf, 0.0], [0.5, 0.3]])
        with np.errstate(invalid="ignore"):
            vals = cores.core_eval(2, cores.BUMP, None, xi_set(2, 2)[1], pts)
        assert np.array_equal(vals[1:5], np.zeros(4))
        assert vals[5] != 0.0


def test_import_leaves_sympy_unloaded():
    # nor does building every corpus item, which parses each expression and
    # derives its singularity cuts
    code = ("import sys, ptdiff\n"
            "for item in ptdiff.load_corpus().values():\n"
            "    item.build()\n"
            "print(sorted({'sympy', 'scipy'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
