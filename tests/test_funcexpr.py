"""Expression parser and evaluator: grammar, singularities, evaluation."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptdiff import parse
from ptdiff.funcexpr import (BinOp, Call, Const, DomainError, ExprError, Neg, Pow, Var,
                             _candidate_args, _free_vars, _real_roots, _zeros, eval_expr,
                             pretty)

X1 = sp.Symbol("x1", real=True)


def to_sympy(node):
    """An AST in the one variable x1 as a sympy expression: the oracle's input."""
    if isinstance(node, Const):
        return sp.Float(node.value)
    if isinstance(node, Var):
        return X1
    if isinstance(node, Neg):
        return -to_sympy(node.operand)
    if isinstance(node, BinOp):
        a, b = to_sympy(node.left), to_sympy(node.right)
        return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[node.op]
    if isinstance(node, Pow):
        e = node.exponent
        return to_sympy(node.base) ** sp.Rational(e.numerator, e.denominator)
    if isinstance(node, Call) and node.name == "abs":
        return sp.Abs(to_sympy(node.args[0]))
    raise ValueError(f"no sympy form for {node!r}")


def solveset_cuts(cand):
    """(float, is rational) of each real zero, by sympy; none unless a FiniteSet.

    Where sympy raises, as for some zero coefficients, there is no cut either.
    """
    try:
        roots = sp.solveset(sp.nsimplify(to_sympy(cand), rational=True), X1,
                            domain=sp.S.Reals)
    except Exception:
        return []
    if not isinstance(roots, sp.FiniteSet):
        return []
    return sorted((float(r), bool(r.is_rational)) for r in roots if r.is_real)


# constants of at most 15 significant digits, which sympy's nsimplify reads
# as the same rational as Fraction(repr(c))
CONST = st.builds(lambda i, d: f"({i / 10 ** d!r})", st.integers(-400, 400), st.integers(0, 2))
LINEAR = st.builds("{}*x1 + {}".format, CONST, CONST)
QUADRATIC = st.builds("{}*x1^2 + {}*x1 + {}".format, CONST, CONST, CONST)
CANDIDATES = st.one_of(
    LINEAR, QUADRATIC,
    st.builds("({})*({})".format, LINEAR, QUADRATIC),
    st.builds("({})*({})*({})".format, LINEAR, LINEAR, LINEAR),
    st.builds("({})^{}".format, LINEAR, st.integers(2, 4)),
    st.builds("abs({}) - {}".format, st.one_of(LINEAR, QUADRATIC), CONST),
    st.builds("x1*abs({}) + {}".format, LINEAR, CONST))


class TestParse:
    def test_sqrt_abs_singularity(self):
        ast, sing = parse("abs(x1)^(1/2)")
        assert (0, 0.0) in sing.hyperplanes or (0.0,) in sing.points

    def test_oscillatory_divisor_zero(self):
        ast, sing = parse("x1^2*sin(1/x1)")
        assert 0.0 in sing.axis_coordinates(0)

    def test_syntax_error_position(self):
        with pytest.raises(ExprError) as exc:
            parse("sin(")
        assert exc.value.position is not None

    @pytest.mark.parametrize("text", ["(" * 3000 + "x1" + ")" * 3000,
                                      "x1" + "+x1" * 5000, "1" + "0" * 400])
    def test_deep_or_out_of_range_is_expr_error(self, text):
        # nesting and operator chains deeper than the recursion limit, and
        # constants that overflow a float, are input errors
        with pytest.raises(ExprError):
            parse(text)

    @pytest.mark.parametrize("text,want", [
        ("x1^2/3", "(x1^2)/3"), ("x1^2/x2", "(x1^2)/x2"), ("x1^-2/4", "(x1^-2)/4"),
        ("2*x1^3/x2^2", "(2*x1^3)/(x2^2)"), ("x1^(2/3)", "x1^(2/3)"),
        ("x1^(-1/2)/3", "(x1^(-1/2))/3")])
    def test_bare_exponent_ends_at_its_literal(self, text, want):
        # only a parenthesized exponent is a ratio; a '/' after a bare
        # exponent divides the power
        pts = np.array([[0.7, 1.9], [2.5, 0.3]])
        got, _ = parse(text, dims=2)
        ref, _ = parse(want, dims=2)
        assert got.root == ref.root
        np.testing.assert_array_equal(eval_expr(got, pts), eval_expr(ref, pts))

    def test_fraction_exponent_needs_parentheses(self):
        node = parse("x1^(2/3)")[0].root
        assert isinstance(node, Pow) and node.exponent == Fraction(2, 3)
        node = parse("x1^2/3")[0].root
        assert isinstance(node, BinOp) and node.op == "/"
        assert node.left == Pow(Var(0), Fraction(2)) and node.right == Const(3.0)

    def test_unknown_identifier(self):
        with pytest.raises(ExprError):
            parse("tan(x1)")

    def test_sing_annotation(self):
        ast, sing = parse("x1 @sing(0.5)")
        assert (0.5,) in sing.points

    def test_dimension_check(self):
        with pytest.raises(ExprError):
            parse("x3", dims=2)

    @pytest.mark.parametrize("text,cuts", [
        ("heaviside(abs(x1)-0.5)", [-0.5, 0.0, 0.5]),
        ("1/(0.3*x1-0.1)", [1 / 3]),
        ("1/(x1^2-2)", [-math.sqrt(2), math.sqrt(2)]),
        ("1/(x1^3-x1)", [-1.0, 0.0, 1.0]),
        ("1/(x1-1)^3", [1.0]),
        # sympy's solveset finds no zero of the first; the second is not a
        # polynomial; the third has an identically zero branch, and its one
        # cut is the zero of its abs argument
        ("heaviside(abs(abs(14*x1+2.95)-2.35)-14)",
         [-1.3785714285714286, -0.37857142857142856, -0.21071428571428572,
          -0.04285714285714286, 0.9571428571428572]),
        ("heaviside(exp(x1)-1)", []),
        ("heaviside(abs(x1)-x1)", [0.0]),
        # two irrational zeros of a cubic, (-29 -+ 12^(1/3)) / 2.49, correctly
        # rounded (mpmath at 50 digits agrees), and the kink's rational zero
        ("heaviside(abs((-2.49*x1-29)^3)-12)",
         [-12.566035536187416, -11.646586345381525, -10.727137154575637]),
    ])
    def test_cut_points(self, text, cuts):
        _, sing = parse(text)
        assert sorted(v for _, v in sing.hyperplanes) == sorted(cuts)

    def test_irrational_zero_correctly_rounded(self):
        # the zero of x^3 - 2 lies within half an ulp of the returned float
        (z,) = _real_roots(np.array([Fraction(-2), Fraction(0), Fraction(0), Fraction(1)],
                                    dtype=object))
        x = Fraction(float(z))
        half = Fraction(math.ulp(float(z))) / 2
        assert z == x
        assert (x - half) ** 3 - 2 < 0 < (x + half) ** 3 - 2

    @given(CANDIDATES)
    @settings(max_examples=60, deadline=None)
    def test_cuts_match_solveset(self, text):
        """Rational zeros as sympy's exactly, irrational ones to 4 ulp."""
        ast, _ = parse(f"heaviside({text})")
        candidates = []
        _candidate_args(ast.root, candidates)
        for cand in candidates:
            if len(_free_vars(cand)) != 1:
                continue
            got = [float(z) for z in _zeros(cand)]
            want = solveset_cuts(cand)
            assert len(got) == len(want), (text, got, want)
            for g, (w, rational) in zip(got, want):
                assert g == w if rational else abs(g - w) <= 4 * math.ulp(w), (text, got, want)


ATOMS = st.one_of(st.sampled_from(["x1", "x2", "pi", "0"]),
                  st.integers(0, 10 ** 6).map(str),
                  st.floats(0.0, 1e6).map("{:.6f}".format))
EXPRS = st.recursive(ATOMS, lambda inner: st.one_of(
    st.builds("({} {} {})".format, inner, st.sampled_from("+-*/"), inner),
    st.builds("-{}".format, inner),
    st.builds("{}^{}".format, inner, st.sampled_from(["2", "-1", "(1/2)", "(-3/4)", "0",
                                                      "(1/0)", "1/3", "(0.5)"])),
    st.builds("{}({})".format, st.sampled_from(["abs", "sin", "cos", "exp", "heaviside"]),
              inner),
    st.builds("{}({}, {})".format, st.sampled_from(["min", "max"]), inner, inner),
    st.builds("piecewise({}, {}, {})".format, inner, inner, inner)), max_leaves=10)
# well-formed expressions, and text from the grammar's alphabet, mostly malformed
TEXTS = st.one_of(EXPRS, st.text("x12.0+-*/^(),absinpw@ ", max_size=24))


class TestEval:
    def test_sqrt_value(self):
        ast, _ = parse("abs(x1)^(1/2)")
        assert eval_expr(ast, [0.25]) == pytest.approx(0.5, abs=1e-15)

    def test_heaviside_convention(self):
        ast, _ = parse("heaviside(x1)")
        assert eval_expr(ast, [-1.0]) == 0.0
        assert eval_expr(ast, [0.0]) == 1.0
        assert eval_expr(ast, [2.0]) == 1.0

    def test_declared_limit(self):
        ast, _ = parse("x1^2*sin(1/x1)")
        assert eval_expr(ast, [0.0], limits=[([0.0], 0.0)]) == 0.0

    def test_undeclared_singularity_raises(self):
        ast, _ = parse("1/x1")
        with pytest.raises(DomainError):
            eval_expr(ast, [0.0])

    @given(TEXTS)
    @settings(max_examples=300, deadline=None)
    @example("abs(x1)^(1/2)")
    @example("x1^2*sin(1/x1)")
    @example("heaviside(x1)")
    @example("exp(-x1)")
    @example("piecewise(x1-0.5, 1, 0)")
    @example("min(x1, x2)")
    @example("x1^3+2*x1")
    @example("sin(x1/4)")
    @example("x1^(-3/4) - pi")
    @example("0.000061")
    @example("123456789012345678.0")
    @example("1" + "0" * 400)
    def test_roundtrip_structural(self, text):
        """parse either raises ExprError or round-trips through pretty."""
        try:
            ast, _ = parse(text)
        except ExprError:
            return
        printed = pretty(ast.root)
        again, _ = parse(printed, ast.free_dims)
        assert again.root == ast.root
        assert pretty(again.root) == printed

    def test_reference_table(self, corpus):
        """Every corpus function agrees with an independent numpy evaluation."""
        H = lambda x: np.where(x >= 0, 1.0, 0.0)
        refs = {
            "heaviside": lambda x: H(x[:, 0]),
            "abs_sqrt": lambda x: np.abs(x[:, 0]) ** 0.5,
            "osc": lambda x: np.where(x[:, 0] == 0, 0.0,
                                      x[:, 0] ** 2 * np.sin(1.0 / np.where(x[:, 0] == 0, 1.0, x[:, 0]))),
            "exp": lambda x: np.exp(x[:, 0]),
            "exp_neg": lambda x: np.exp(-x[:, 0]),
            "sq": lambda x: x[:, 0] ** 2,
            "cubic": lambda x: x[:, 0] ** 3 + 2 * x[:, 0],
            "sin4": lambda x: np.sin(x[:, 0] / 4.0),
            "cos4": lambda x: np.cos(x[:, 0] / 4.0),
            "gauss2d": lambda x: np.exp(-x[:, 0] ** 2 - x[:, 1] ** 2),
        }
        rng = np.random.default_rng(11)
        for iid, ref in refs.items():
            item = corpus[iid]
            atom = item.build().atoms[0]
            pts = rng.uniform(-1.5, 1.5, size=(20, item.n))
            got = atom.eval(pts)[:, 0]
            np.testing.assert_allclose(got, ref(pts), rtol=1e-12, atol=1e-12,
                                       err_msg=iid)

    def test_singularity_audit(self, corpus):
        """Declared singularities cover actual kinks of each corpus function.

        Between consecutive declared coordinates the function must be smooth:
        second central differences stay bounded by a smoothness budget.
        """
        for iid in ("heaviside", "abs_sqrt", "osc", "annuli"):
            item = corpus[iid]
            atom = item.build().atoms[0]
            cuts = sorted(set(atom.singularities.axis_coordinates(0)) | {-1.2, 1.2})
            for lo, hi in zip(cuts, cuts[1:]):
                if hi - lo < 1e-3:
                    continue
                xs = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 41)
                h = (xs[1] - xs[0])
                vals = atom.eval(xs[:, None])[:, 0]
                second = np.abs(vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h ** 2
                # smooth pieces have bounded curvature; a jump or kink inside
                # the cell would blow the ratio up by orders of magnitude
                assert np.max(second) < 1e4, (iid, lo, hi)
