"""Expression parser and evaluator for function-type distribution atoms.

A small closed grammar: numeric constants, variables ``x1 .. xn``, the four
arithmetic operations, ``^`` with rational exponents, and the intrinsic
functions abs, sin, cos, exp, heaviside, min, max, piecewise.

Parsing also derives the singularity set at which quadrature splits its
cells.  The candidates are divisors, bases of fractional or negative
powers, arguments of abs and heaviside, and piecewise conditions.  A
candidate in one variable that is a polynomial in it, once each abs(u) is
read as +u or -u, is expanded with exact rational coefficients (a constant
c is Fraction(repr(c))), and each real zero z, exact when rational, gives
the hyperplane x_j = float(z).  Other candidates give no cut.  Trailing
``@sing(...)`` annotations add points.

Conventions: heaviside(0) = 1; piecewise(c, a, b) = a where c > 0, else b.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np


class ExprError(ValueError):
    """Syntax or evaluation error, carrying the offending position if known."""

    def __init__(self, message: str, position: Optional[int] = None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class DomainError(ExprError):
    """Evaluation at an undeclared singularity."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Node:
    pass


@dataclass(frozen=True)
class Const(Node):
    value: float


@dataclass(frozen=True)
class Var(Node):
    index: int  # 0-based; x1 -> 0


@dataclass(frozen=True)
class BinOp(Node):
    op: str  # + - * /
    left: Node
    right: Node


@dataclass(frozen=True)
class Neg(Node):
    operand: Node


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: Fraction


@dataclass(frozen=True)
class Call(Node):
    name: str  # abs sin cos exp heaviside min max piecewise
    args: Tuple[Node, ...]


_INTRINSICS = {  # name: (arity, evaluation on arrays)
    "abs": (1, np.abs), "sin": (1, np.sin), "cos": (1, np.cos), "exp": (1, np.exp),
    "heaviside": (1, lambda u: np.where(u >= 0.0, 1.0, 0.0)),
    "min": (2, np.minimum), "max": (2, np.maximum),
    "piecewise": (3, lambda c, a, b: np.where(c > 0.0, a, b)),
}


@dataclass(frozen=True)
class ExprAST:
    root: Node
    free_dims: int


@dataclass(frozen=True)
class SingularitySet:
    """Declared superset of non-smooth loci: points and axis hyperplanes."""

    points: Tuple[Tuple[float, ...], ...] = ()
    hyperplanes: Tuple[Tuple[int, float], ...] = ()  # (axis, value)

    def axis_coordinates(self, axis: int) -> List[float]:
        coords = [v for ax, v in self.hyperplanes if ax == axis]
        coords += [p[axis] for p in self.points]
        return sorted(set(coords))

    def merged(self, other: "SingularitySet") -> "SingularitySet":
        return SingularitySet(tuple(dict.fromkeys(self.points + other.points)),
                              tuple(dict.fromkeys(self.hyperplanes + other.hyperplanes)))


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.\d*|\.\d+|\d+) |
    (?P<name>[A-Za-z_][A-Za-z_0-9]*) |
    (?P<sing>@sing) |
    (?P<op>[-+*/^(),])
""", re.VERBOSE)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ExprError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _number(text: str, pos: int) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ExprError(f"number {text[:20]}... out of range", pos)
    return value


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.max_var = 0
        self.sing_annotations: List[Tuple[float, ...]] = []

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.peek()
        if text != value:
            raise ExprError(f"expected {value!r}, found {text or 'end of input'!r}", pos)
        return self.advance()

    def parse(self) -> Node:
        node = self.expression()
        # trailing @sing annotations
        while self.peek()[0] == "sing":
            self.advance()
            self.expect("(")
            coords = [self.signed_number()]
            while self.peek()[1] == ",":
                self.advance()
                coords.append(self.signed_number())
            self.expect(")")
            self.sing_annotations.append(tuple(coords))
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected token {text!r}", pos)
        return node

    def signed_number(self) -> float:
        sign = 1.0
        while self.peek()[1] in ("+", "-"):
            if self.advance()[1] == "-":
                sign = -sign
        kind, text, pos = self.peek()
        if kind != "num":
            raise ExprError("expected a number", pos)
        self.advance()
        return sign * _number(text, pos)

    def expression(self) -> Node:
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek()[1] == "-":
            self.advance()
            return Neg(self.unary())
        if self.peek()[1] == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek()[1] == "^":
            pos = self.peek()[2]
            self.advance()
            exponent = self.rational_exponent(pos)
            return Pow(base, exponent)
        return base

    def rational_exponent(self, pos: int) -> Fraction:
        """Exponents are signed literals, or literal ratios in parentheses:
        a bare exponent ends at its literal, so x1^2/3 is (x1^2)/3."""
        sign = 1
        if self.peek()[1] == "-":
            self.advance()
            sign = -1
        paren = self.peek()[1] == "("
        if paren:
            self.advance()
        elif self.peek()[0] != "num":
            raise ExprError("exponent must be a rational constant", pos)
        frac = Fraction(self.signed_number()).limit_denominator(10 ** 9)
        if paren and self.peek()[1] == "/":
            self.advance()
            den = Fraction(self.signed_number()).limit_denominator(10 ** 9)
            if den == 0:
                raise ExprError("zero denominator in exponent", pos)
            frac /= den
        if paren:
            self.expect(")")
        return sign * frac

    def atom(self) -> Node:
        kind, text, pos = self.peek()
        if kind == "num":
            self.advance()
            return Const(_number(text, pos))
        if text == "(":
            self.advance()
            node = self.expression()
            self.expect(")")
            return node
        if kind == "name":
            self.advance()
            m = re.fullmatch(r"x(\d+)", text)
            if m:
                j = int(m.group(1))
                if j < 1:
                    raise ExprError("variables are numbered from x1", pos)
                self.max_var = max(self.max_var, j)
                return Var(j - 1)
            if text == "pi":
                return Const(float(np.pi))
            if text in _INTRINSICS:
                self.expect("(")
                args = [self.expression()]
                while self.peek()[1] == ",":
                    self.advance()
                    args.append(self.expression())
                self.expect(")")
                want = _INTRINSICS[text][0]
                if len(args) != want:
                    raise ExprError(f"{text} takes {want} argument(s)", pos)
                return Call(text, tuple(args))
            raise ExprError(f"unknown identifier {text!r}", pos)
        raise ExprError(f"unexpected token {text or 'end of input'!r}", pos)


# ---------------------------------------------------------------------------
# Singularity derivation

_MAX_DEGREE = 64  # a candidate of higher degree gives no cut
_MAX_KINKS = 8  # likewise a candidate with more distinct abs calls (2^8 branches)
_NEWTON_STEPS = 8  # polishing steps of an irrational zero; one or two suffice


def _walk(node: Node):
    """node and its sub-expressions: the Node fields, and the args of a Call."""
    yield node
    for value in vars(node).values():
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, Node):
                yield from _walk(child)


def _free_vars(node: Node) -> set:
    return {m.index for m in _walk(node) if isinstance(m, Var)}


def _candidate_args(node: Node, out: List[Node]):
    """Sub-expressions whose zero sets are singularity candidates."""
    if isinstance(node, BinOp):
        if node.op == "/":
            out.append(node.right)
        _candidate_args(node.left, out)
        _candidate_args(node.right, out)
    elif isinstance(node, Neg):
        _candidate_args(node.operand, out)
    elif isinstance(node, Pow):
        if node.exponent.denominator != 1 or node.exponent < 0:
            out.append(node.base)
        _candidate_args(node.base, out)
    elif isinstance(node, Call):
        if node.name in ("abs", "heaviside"):
            out.append(node.args[0])
        elif node.name == "piecewise":
            out.append(node.args[0])
        for a in node.args:
            _candidate_args(a, out)


def _poly(node: Node, signs) -> np.ndarray:
    """node as a polynomial in its one variable, each abs(u) read as signs[abs(u)] * u.

    Fraction coefficients, lowest power first, trimmed (zero is [0]).  A
    constant c is Fraction(repr(c)); division is by nonzero constants only.
    Anything else, inf and nan, or a degree above _MAX_DEGREE raise ValueError.
    """
    from numpy.polynomial import polynomial as P  # loaded only when there is a candidate
    if isinstance(node, Const):
        return np.array([Fraction(repr(node.value))], dtype=object)
    if isinstance(node, Var):
        return np.array([Fraction(0), Fraction(1)], dtype=object)
    if isinstance(node, Neg):
        return -_poly(node.operand, signs)
    if isinstance(node, BinOp):
        a, b = _poly(node.left, signs), _poly(node.right, signs)
        if node.op == "+":
            return P.polyadd(a, b)
        if node.op == "-":
            return P.polysub(a, b)
        if node.op == "*" and len(a) + len(b) - 2 <= _MAX_DEGREE:
            return P.polymul(a, b)
        if node.op == "/" and len(b) == 1 and b[0] != 0:
            return a / b[0]
    if isinstance(node, Pow) and node.exponent.denominator == 1 and 0 <= node.exponent:
        base = _poly(node.base, signs)
        if max(len(base) - 1, 1) * node.exponent <= _MAX_DEGREE:
            return P.polypow(base, int(node.exponent), _MAX_DEGREE)
    if isinstance(node, Call) and node.name == "abs":
        return signs[node] * _poly(node.args[0], signs)
    raise ValueError("not a polynomial")


def _real_roots(p: np.ndarray) -> List[Fraction]:
    """The real zeros of a polynomial p of degree >= 1, each exact when rational.

    p is first made monic and divided by gcd(p, p'), which leaves each zero
    simple.  Degree 2 has the closed form without cancellation, q = -(b +
    sgn(b) sqrt(b^2 - 4c)) / 2 and zeros q and c/q; the square root is
    exact when it is rational, else to 2^-128 relative.  Higher degrees
    start from numpy's zeros: one whose rounding to a multiple of 1/lead,
    lead the least common denominator of p, is a zero of p is that
    rational, and it is divided out exactly before the rest is solved.
    What has no rational zero keeps numpy's real zeros, each polished to
    the correctly rounded float (``_polished``).
    """
    from numpy.polynomial import polynomial as P
    g, r = p, P.polyder(p)
    while r.any():
        g, r = r, P.polydiv(g, r)[1]
    p = P.polydiv(p, g)[0]
    p = p / p[-1]
    if len(p) == 2:
        return [-p[0]]
    if len(p) == 3:
        c, b, disc = p[0], p[1], p[1] * p[1] - 4 * p[0]
        if disc < 0:
            return []
        root = Fraction(math.isqrt(disc.numerator * disc.denominator << 256),
                        disc.denominator << 128)
        q = -(b + (root if b >= 0 else -root)) / 2
        return [q, c / q]
    lead = math.lcm(*(c.denominator for c in p))
    zeros = np.roots(p[::-1].astype(float))
    exact = {Fraction(round(z.real * lead), lead) for z in zeros}
    exact = [z for z in exact if P.polyval(z, p) == 0]
    for z in exact:
        p = P.polydiv(p, np.array([-z, Fraction(1)], dtype=object))[0]
    if exact:
        return exact + (_real_roots(p) if len(p) > 1 else [])
    return [_polished(p, z.real) for z in zeros if z.imag == 0]


def _polished(p: np.ndarray, z: float) -> Fraction:
    """The float nearest the simple zero of p near z, as a Fraction.

    Newton steps in exact arithmetic, each from the float of the last, until
    p changes sign between the midpoints to the float's two neighbours: the
    zero then rounds to that float.
    """
    from numpy.polynomial import polynomial as P
    dp = P.polyder(p)
    for _ in range(_NEWTON_STEPS):
        x = Fraction(z)
        lo, hi = ((x + Fraction(math.nextafter(z, t))) / 2 for t in (-math.inf, math.inf))
        slope = P.polyval(x, dp)
        if P.polyval(lo, p) * P.polyval(hi, p) < 0 or slope == 0:
            break
        z = float(x - P.polyval(x, p) / slope)
    return Fraction(z)


def _zeros(cand: Node) -> List[Fraction]:
    """Real zeros of a candidate in one variable, ascending.

    Each abs(u) is read as +u on one branch and -u on the other, and a zero
    of a branch is kept when it lies on that branch.  A candidate that is
    not a polynomial, or has a branch that is identically zero, gives none.
    """
    kinks = list(dict.fromkeys(m for m in _walk(cand) if isinstance(m, Call) and m.name == "abs"))
    if len(kinks) > _MAX_KINKS:
        return []
    zeros = set()
    try:
        for signs in itertools.product((1, -1), repeat=len(kinks)):
            branch = dict(zip(kinks, signs))
            p = _poly(cand, branch)
            if not p.any():
                return []
            if len(p) > 1:
                zeros.update(z for z in _real_roots(p) if all(s * sum(
                    c * z ** i for i, c in enumerate(_poly(k.args[0], branch))) >= 0
                    for k, s in branch.items()))
    except (ValueError, OverflowError):
        return []
    return sorted(zeros)


def _derive_singularities(root: Node) -> SingularitySet:
    candidates: List[Node] = []
    _candidate_args(root, candidates)
    candidates = [c for c in candidates if len(_free_vars(c)) == 1]
    hyperplanes = [(next(iter(_free_vars(c))), float(z)) for c in candidates for z in _zeros(c)]
    return SingularitySet((), tuple(dict.fromkeys(hyperplanes)))


# ---------------------------------------------------------------------------
# Public API

def parse(text: str, dims: Optional[int] = None) -> Tuple[ExprAST, SingularitySet]:
    """Parse an expression; returns the AST and its derived singularity set."""
    if not text or not text.strip():
        raise ExprError("empty expression", 0)
    p = _Parser(text)
    try:
        # the parser and the singularity walk recurse once per nesting level
        root = p.parse()
        sing = _derive_singularities(root)
    except RecursionError:
        raise ExprError("expression nested too deeply") from None
    n = dims if dims is not None else max(p.max_var, 1)
    if p.max_var > n:
        raise ExprError(f"expression uses x{p.max_var} but dimension is {n}")
    ann_points = tuple(pt if len(pt) == n else tuple(list(pt) + [0.0] * (n - len(pt)))
                       for pt in p.sing_annotations)
    sing = sing.merged(SingularitySet(points=ann_points))
    return ExprAST(root, n), sing


def _eval_node(node: Node, cols: Sequence[np.ndarray]) -> np.ndarray:
    """The node's values at the points; the caller sets the error state."""
    if isinstance(node, Const):
        return np.full_like(cols[0], node.value)
    if isinstance(node, Var):
        return cols[node.index]
    if isinstance(node, Neg):
        return -_eval_node(node.operand, cols)
    if isinstance(node, BinOp):
        a = _eval_node(node.left, cols)
        b = _eval_node(node.right, cols)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    if isinstance(node, Pow):
        base = _eval_node(node.base, cols)
        e = node.exponent
        if e.denominator == 1:
            return base ** int(e)
        if e.denominator % 2 == 1:
            # odd-root branch: real for negative bases
            mag = np.abs(base) ** float(e)
            sign = np.where(base < 0, (-1.0) ** e.numerator, 1.0)
            return sign * mag
        return base ** float(e)  # nan for negative base, flagged downstream
    if isinstance(node, Call):
        return _INTRINSICS[node.name][1](*(_eval_node(a, cols) for a in node.args))
    raise ExprError(f"cannot evaluate node {node!r}")


def eval_expr(ast: ExprAST, x, limits: Sequence[Tuple[Sequence[float], float]] = ()
              ) -> np.ndarray:
    """IEEE-double evaluation at points (npts, n) or a single point.

    Non-finite results at points within 1e-12 of a declared limit point take
    the declared value; other non-finite results raise DomainError.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    pts = x.reshape(-1, ast.free_dims)
    cols = [pts[:, j] for j in range(ast.free_dims)]
    # non-finite values are settled below, by limit or DomainError
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = _eval_node(ast.root, cols)
    vals = np.asarray(vals, dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any():
        vals = vals.copy()
        for point, value in limits:
            p = np.asarray(point, dtype=float).reshape(ast.free_dims)
            near = bad & (np.linalg.norm(pts - p, axis=1) <= 1e-12)
            vals[near] = value
            bad &= ~near
        if bad.any():
            where = pts[np.argmax(bad)]
            raise DomainError(f"evaluation at undeclared singularity near {where.tolist()}")
    return vals[0] if single else vals


def pretty(node: Node) -> str:
    if isinstance(node, Const):
        # positional digits, which the tokenizer reads back to the same float;
        # repr would write 6.1e-05
        return np.format_float_positional(node.value, unique=True, trim="0")
    if isinstance(node, Var):
        return f"x{node.index + 1}"
    if isinstance(node, Neg):
        return f"(-{pretty(node.operand)})"
    if isinstance(node, BinOp):
        return f"({pretty(node.left)} {node.op} {pretty(node.right)})"
    if isinstance(node, Pow):
        e = node.exponent
        if e.denominator == 1:
            return f"({pretty(node.base)} ^ {e.numerator})"
        return f"({pretty(node.base)} ^ ({e.numerator}/{e.denominator}))"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(pretty(a) for a in node.args)})"
    raise ValueError(f"unknown node {node!r}")
