"""Expression parser and evaluator for function-type distribution atoms.

A small closed grammar: numeric constants, variables ``x1 .. xn``, the four
arithmetic operations, ``^`` with rational exponents, and the intrinsic
functions abs, sin, cos, exp, heaviside, min, max, piecewise.  Parsing also
derives a candidate singularity set (divisor zeros, branch points of
non-integer powers, abs kinks, heaviside/piecewise jumps) that downstream
quadrature uses for cell splitting; ``@sing(...)`` annotations extend it.

Conventions: heaviside(0) = 1; piecewise(c, a, b) = a where c > 0, else b.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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


_UNARY = {"abs", "sin", "cos", "exp", "heaviside"}
_BINARY = {"min", "max"}
_TERNARY = {"piecewise"}


@dataclass(frozen=True)
class ExprAST:
    root: Node
    free_dims: int
    text: str = ""

    def __str__(self) -> str:
        return pretty(self.root)


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


class _Parser:
    def __init__(self, text: str):
        self.text = text
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
        return sign * float(text)

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
        """Exponents are literals or parenthesized literal ratios."""
        sign = 1
        if self.peek()[1] == "-":
            self.advance()
            sign = -1
        kind, text, p = self.peek()
        if kind == "num":
            self.advance()
            frac = Fraction(text).limit_denominator(10 ** 9)
            if self.peek()[1] == "/":  # forms like 1/2 directly
                self.advance()
                k2, t2, p2 = self.peek()
                if k2 != "num":
                    raise ExprError("expected a number in rational exponent", p2)
                self.advance()
                frac = frac / Fraction(t2)
            return sign * frac
        if text == "(":
            self.advance()
            num = self.signed_number()
            if self.peek()[1] == "/":
                self.advance()
                den = self.signed_number()
                frac = Fraction(num).limit_denominator(10 ** 9) / Fraction(den).limit_denominator(10 ** 9)
            else:
                frac = Fraction(num).limit_denominator(10 ** 9)
            self.expect(")")
            return sign * frac
        raise ExprError("exponent must be a rational constant", pos)

    def atom(self) -> Node:
        kind, text, pos = self.peek()
        if kind == "num":
            self.advance()
            return Const(float(text))
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
            if text in _UNARY | _BINARY | _TERNARY:
                self.expect("(")
                args = [self.expression()]
                while self.peek()[1] == ",":
                    self.advance()
                    args.append(self.expression())
                self.expect(")")
                want = 1 if text in _UNARY else (2 if text in _BINARY else 3)
                if len(args) != want:
                    raise ExprError(f"{text} takes {want} argument(s)", pos)
                return Call(text, tuple(args))
            raise ExprError(f"unknown identifier {text!r}", pos)
        raise ExprError(f"unexpected token {text or 'end of input'!r}", pos)


# ---------------------------------------------------------------------------
# Singularity derivation

def _to_sympy(node: Node, symbols):
    import sympy as sp

    if isinstance(node, Const):
        return sp.Float(node.value)
    if isinstance(node, Var):
        return symbols[node.index]
    if isinstance(node, Neg):
        return -_to_sympy(node.operand, symbols)
    if isinstance(node, BinOp):
        a, b = _to_sympy(node.left, symbols), _to_sympy(node.right, symbols)
        return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[node.op]
    if isinstance(node, Pow):
        return _to_sympy(node.base, symbols) ** sp.Rational(node.exponent.numerator,
                                                            node.exponent.denominator)
    if isinstance(node, Call):
        args = [_to_sympy(a, symbols) for a in node.args]
        table = {"abs": sp.Abs, "sin": sp.sin, "cos": sp.cos, "exp": sp.exp,
                 "heaviside": lambda z: sp.Heaviside(z, 1),
                 "min": sp.Min, "max": sp.Max}
        if node.name in table:
            return table[node.name](*args)
        if node.name == "piecewise":
            return sp.Piecewise((args[1], args[0] > 0), (args[2], True))
    raise ValueError("unsupported node for sympy conversion")


def _free_vars(node: Node, acc=None) -> set:
    if acc is None:
        acc = set()
    if isinstance(node, Var):
        acc.add(node.index)
    elif isinstance(node, BinOp):
        _free_vars(node.left, acc)
        _free_vars(node.right, acc)
    elif isinstance(node, Neg):
        _free_vars(node.operand, acc)
    elif isinstance(node, Pow):
        _free_vars(node.base, acc)
    elif isinstance(node, Call):
        for a in node.args:
            _free_vars(a, acc)
    return acc


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


def _derive_singularities(root: Node, n: int) -> SingularitySet:
    candidates: List[Node] = []
    _candidate_args(root, candidates)
    candidates = [c for c in candidates if len(_free_vars(c)) == 1]
    if not candidates:
        return SingularitySet()
    # imported here, not at module level: sympy takes about half of the
    # import time of ptdiff, and most expressions have nothing to solve
    import sympy as sp

    hyperplanes: List[Tuple[int, float]] = []
    symbols = sp.symbols(f"x1:{n + 1}", real=True)
    for cand in candidates:
        axis = next(iter(_free_vars(cand)))
        try:
            expr = _to_sympy(cand, symbols)
            roots = sp.solveset(sp.nsimplify(expr, rational=True), symbols[axis], domain=sp.S.Reals)
        except Exception:
            continue
        if isinstance(roots, sp.FiniteSet):
            for r in roots:
                if r.is_real:
                    hyperplanes.append((axis, float(r)))
    return SingularitySet((), tuple(dict.fromkeys(hyperplanes)))


# ---------------------------------------------------------------------------
# Public API

def parse(text: str, dims: Optional[int] = None) -> Tuple[ExprAST, SingularitySet]:
    """Parse an expression; returns the AST and its derived singularity set."""
    if not text or not text.strip():
        raise ExprError("empty expression", 0)
    p = _Parser(text)
    root = p.parse()
    n = dims if dims is not None else max(p.max_var, 1)
    if p.max_var > n:
        raise ExprError(f"expression uses x{p.max_var} but dimension is {n}")
    sing = _derive_singularities(root, n)
    ann_points = tuple(pt if len(pt) == n else tuple(list(pt) + [0.0] * (n - len(pt)))
                       for pt in p.sing_annotations)
    sing = sing.merged(SingularitySet(points=ann_points))
    return ExprAST(root, n, text), sing


def _eval_node(node: Node, cols: Sequence[np.ndarray]) -> np.ndarray:
    if isinstance(node, Const):
        return np.full_like(cols[0], node.value)
    if isinstance(node, Var):
        return cols[node.index]
    if isinstance(node, Neg):
        return -_eval_node(node.operand, cols)
    if isinstance(node, BinOp):
        a = _eval_node(node.left, cols)
        b = _eval_node(node.right, cols)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if e.denominator == 1:
                return base ** int(e)
            if e.denominator % 2 == 1:
                # odd-root branch: real for negative bases
                mag = np.abs(base) ** float(e)
                sign = np.where(base < 0, (-1.0) ** e.numerator, 1.0)
                return sign * mag
            return base ** float(e)  # nan for negative base, flagged downstream
    if isinstance(node, Call):
        args = [_eval_node(a, cols) for a in node.args]
        with np.errstate(invalid="ignore", over="ignore"):
            if node.name == "abs":
                return np.abs(args[0])
            if node.name == "sin":
                return np.sin(args[0])
            if node.name == "cos":
                return np.cos(args[0])
            if node.name == "exp":
                return np.exp(args[0])
            if node.name == "heaviside":
                return np.where(args[0] >= 0.0, 1.0, 0.0)
            if node.name == "min":
                return np.minimum(args[0], args[1])
            if node.name == "max":
                return np.maximum(args[0], args[1])
            if node.name == "piecewise":
                return np.where(args[0] > 0.0, args[1], args[2])
    raise ExprError(f"cannot evaluate node {node!r}")


def eval_expr(ast: ExprAST, x, limits: Sequence[Tuple[Sequence[float], float]] = (),
              strict: bool = True) -> np.ndarray:
    """IEEE-double evaluation at points (npts, n) or a single point.

    Non-finite results at points within 1e-12 of a declared limit point take
    the declared value; other non-finite results raise DomainError when
    strict.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    pts = x.reshape(-1, ast.free_dims)
    cols = [pts[:, j] for j in range(ast.free_dims)]
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
        if bad.any() and strict:
            where = pts[np.argmax(bad)]
            raise DomainError(f"evaluation at undeclared singularity near {where.tolist()}")
    return vals[0] if single else vals


def pretty(node: Node) -> str:
    if isinstance(node, Const):
        return repr(node.value)
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
