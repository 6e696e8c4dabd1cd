"""Tiny expression language for weights and operator coefficients.

Grammar (EBNF):

    expr    = term (("+" | "-") term)* ;
    term    = unary (("*" | "/") unary)* ;
    unary   = "-" unary | power ;
    power   = atom ("^" unary)? ;          (right-associative, binds above "-")
    atom    = NUMBER | "t" | FUNC "(" expr ")" | "(" expr ")" ;
    FUNC    = "exp" | "log" | "sin" | "cos" | "sinh" | "cosh" | "sqrt" | "abs" ;
    NUMBER  = decimal literal, optional fraction and exponent part ;

Trees are plain tuples: ("num", v), ("var",), ("neg", x),
("bin", op, left, right), ("call", name, arg).  Tuple equality gives the
structural round-trip property for free.  A tree is evaluated one way,
by `evaluate`: it compiles the tree into a numpy lambda (the private
`_compile`) and runs it with numpy's divide and invalid flags raised, so
every value the package reads from a user expression is checked.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import EvaluationDomainError, ExpressionSyntaxError

FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^()]))"
)


def tokenize(text):
    """Return a list of (kind, value, position) tokens; kind in num/name/op."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExpressionSyntaxError(
                f"unexpected character {stripped[0]!r}",
                len(text) - len(stripped))
        if m.group("num") is not None:
            tokens.append(("num", float(text[m.start("num"):m.end()]),
                           m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExpressionSyntaxError(f"expected {op!r}", pos)
        return self.next()

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = ("bin", val, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = ("bin", val, node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return ("bin", "^", base, self.unary())
        return base

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return ("num", val)
        if kind == "name":
            if val == "t":
                return ("var",)
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return ("call", val, arg)
            raise ExpressionSyntaxError(f"unknown name {val!r}", pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError(
            "unexpected end of input" if kind == "end" else f"unexpected {val!r}",
            pos)


def parse_expression(text):
    """Parse `text` into an expression tree.

    Raises ExpressionSyntaxError (with offset) on malformed input.
    """
    p = _Parser(tokenize(text))
    node = p.expr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ExpressionSyntaxError(f"trailing input {val!r}", pos)
    return node


def evaluate(tree, t):
    """Evaluate a tree at scalar or ndarray t through its compiled form.

    The one evaluator: the tree is compiled afresh at each call (`_compile`)
    and run with numpy's divide and invalid flags raised, so a division by
    zero, a log or sqrt outside its domain or a negative base to a
    fractional power raises EvaluationDomainError naming the flag; a value
    that overflows is caught by the finiteness check.  Returns a float for
    scalar t, else a new array of t's shape.
    """
    t = np.asarray(t, dtype=float)
    try:
        with np.errstate(divide="raise", invalid="raise", over="ignore",
                         under="ignore"):
            out = _compile(tree)(t)
    except FloatingPointError as exc:
        raise EvaluationDomainError(
            f"expression left its domain: {exc}") from None
    out = np.broadcast_to(out, t.shape) if t.shape else out
    if not np.all(np.isfinite(out)):
        raise EvaluationDomainError("expression not finite on the requested points")
    if t.shape:
        return np.array(out, dtype=float)
    return float(out)


# precedence levels for the printer
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(tree):
    if tree[0] == "bin":
        return _PREC[tree[1]]
    if tree[0] == "neg":
        return _PREC["neg"]
    return 5


def pretty(tree):
    """Canonical text form; parse_expression(pretty(x)) == x structurally."""
    tag = tree[0]
    if tag == "num":
        return repr(tree[1])
    if tag == "var":
        return "t"
    if tag == "call":
        return f"{tree[1]}({pretty(tree[2])})"
    if tag == "neg":
        inner = pretty(tree[1])
        if _prec(tree[1]) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    _, op, left, right = tree
    p = _PREC[op]
    ls = pretty(left)
    rs = pretty(right)
    # left operand needs parens below (or at, for non-associative spots) p
    if _prec(left) < p or (op == "^" and _prec(left) <= p):
        ls = f"({ls})"
    # right operand: +,-,*,/ are left-associative; ^ grabs a unary on the right
    if op == "^":
        if _prec(right) < _PREC["neg"]:
            rs = f"({rs})"
    elif _prec(right) <= p:
        rs = f"({rs})"
    return f"{ls} {op} {rs}" if op in "+-" else f"{ls}{op}{rs}"


def _source(tree, ns):
    kind = tree[0]
    if kind == "num":
        # bound in the namespace as an np.float64 scalar, so a constant
        # subtree such as 1/0 follows numpy's flags, not Python's errors
        name = f"_n{len(ns)}"
        ns[name] = np.float64(tree[1])
        return name
    if kind == "var":
        return "t"
    if kind == "neg":
        return f"(-{_source(tree[1], ns)})"
    if kind == "bin":
        op = "**" if tree[1] == "^" else tree[1]
        return f"({_source(tree[2], ns)} {op} {_source(tree[3], ns)})"
    if kind == "call":
        return f"_{tree[1]}({_source(tree[2], ns)})"
    raise ValueError(f"unknown node {tree!r}")


def _compile(tree):
    """Compile a tree into a numpy-backed callable t -> value.

    Every operation, constants included, is a numpy operation, so the
    callable follows numpy's error flags.  It checks nothing itself; only
    `evaluate` runs it, with the divide and invalid flags raised.
    """
    ns = {f"_{name}": fn for name, fn in FUNCTIONS.items()}
    return eval(f"lambda t: {_source(tree, ns)}", ns)  # noqa: S307 - own AST


def constant(value):
    """Tree for a numeric constant."""
    return ("num", float(value))


def scale(tree, factor):
    """Tree for factor * tree, folding the trivial factor 1."""
    if factor == 1.0:
        return tree
    return ("bin", "*", constant(factor), tree)
