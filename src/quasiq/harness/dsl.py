"""Tiny boolean expression language for verifier functions.

Grammar (lowest precedence first; all binary operators left-associative):

    expr   := xor ('|' xor)*
    xor    := and ('^' and)*
    and    := unary ('&' unary)*
    unary  := '!' unary | atom
    atom   := '0' | '1' | 'x[i]' | 'b[j]'
            | 'parity' '(' ('x' | 'b' | 'x' '&' 'b') ')'
            | '(' expr ')'

parity(x & b) is the inner product of the two registers mod 2 (zipped to the
shorter length).  Parsing and printing are mutually inverse: parse(print(e))
reproduces e, and printing a parsed string is a fixpoint.  Text nested more
than MAX_DEPTH levels deep is a ParseError.

A compiled verifier evaluates one branch with eval_dsl, and all 2**m branches
of one input at once with mask_dsl (bit-sliced: every subexpression becomes
the int whose bit key_of(b) is its value on branch b).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import and_, or_, xor
from typing import Union

from quasiq.verifierkit import Verifier, full_mask

Bits = tuple[int, ...]


class ParseError(ValueError):
    """Syntax or range error with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        position = f"line {line}, column {col}"
        detail = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at {position}{detail}")
        self.line = line
        self.col = col
        self.expected = expected


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Ref:
    reg: str  # "x" | "b"
    index: int


@dataclass(frozen=True)
class Not:
    child: "DslExpr"


@dataclass(frozen=True)
class BinOp:
    op: str  # "&" | "^" | "|"
    left: "DslExpr"
    right: "DslExpr"


@dataclass(frozen=True)
class Parity:
    arg: str  # "x" | "b" | "x&b"


DslExpr = Union[Lit, Ref, Not, BinOp, Parity]

_PRECEDENCE = {"|": 1, "^": 2, "&": 3}
_OPS = {"&": and_, "^": xor, "|": or_}

# The most '(' and '!' open at once, and the deepest expression tree, the
# parser accepts: it, the printer and both evaluators recurse once per level.
MAX_DEPTH = 100


# -- lexer ---------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    type: str
    value: str
    line: int
    col: int


_SINGLE = {"(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
           "&": "AMP", "^": "CARET", "|": "PIPE", "!": "BANG"}


_DIGITS = frozenset("0123456789")  # str.isdigit also takes '²' and '٣'


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch in _SINGLE:
            tokens.append(_Token(_SINGLE[ch], ch, line, col))
            col += 1
            i += 1
            continue
        if ch in _DIGITS:
            start = i
            while i < len(text) and text[i] in _DIGITS:
                i += 1
            tokens.append(_Token("INT", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("NAME", text[start:i], line, col))
            col += i - start
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# -- parser --------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], n: int | None, m: int | None):
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.m = m
        self.open = 0  # '(' and '!' enclosing the current token

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, type_: str, *expected_names: str) -> _Token:
        tok = self.peek()
        if tok.type != type_:
            names = expected_names or (type_,)
            raise ParseError(f"unexpected {tok.value or 'end of input'!r}",
                             tok.line, tok.col, expected=names)
        return self.advance()

    @staticmethod
    def nested(tok: _Token, depth: int) -> int:
        """depth, unless it passes MAX_DEPTH at tok."""
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested more than {MAX_DEPTH} levels deep",
                             tok.line, tok.col)
        return depth

    def parse(self) -> DslExpr:
        expr, _ = self.binary()
        tok = self.peek()
        if tok.type != "EOF":
            raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.col,
                             expected=("operator", "end of input"))
        return expr

    # Each parse method returns (expression, depth of its tree).

    def binary(self, floor: int = 1) -> tuple[DslExpr, int]:
        """Left-associative operators binding at least as tight as `floor` in
        _PRECEDENCE, the table the printer reads too."""
        expr, depth = self.unary()
        while _PRECEDENCE.get(self.peek().value, 0) >= floor:
            tok = self.advance()
            right, right_depth = self.binary(_PRECEDENCE[tok.value] + 1)
            expr = BinOp(tok.value, expr, right)
            depth = self.nested(tok, max(depth, right_depth) + 1)
        return expr, depth

    def unary(self) -> tuple[DslExpr, int]:
        tok = self.peek()
        if tok.type != "BANG":
            return self.atom()
        self.advance()
        self.open = self.nested(tok, self.open + 1)
        child, depth = self.unary()
        self.open -= 1
        return Not(child), self.nested(tok, depth + 1)

    def atom(self) -> tuple[DslExpr, int]:
        tok = self.peek()
        if tok.type == "INT":
            self.advance()
            if tok.value not in ("0", "1"):
                raise ParseError(f"literal {tok.value!r} is not a bit", tok.line, tok.col,
                                 expected=("0", "1"))
            return Lit(int(tok.value)), 1
        if tok.type == "LPAREN":
            self.advance()
            self.open = self.nested(tok, self.open + 1)
            inner = self.binary()
            self.open -= 1
            self.expect("RPAREN", "')'")
            return inner
        if tok.type == "NAME":
            if tok.value == "parity":
                return self.parity(), 1
            if tok.value in ("x", "b"):
                return self.reference(), 1
            raise ParseError(f"unknown identifier {tok.value!r}", tok.line, tok.col,
                             expected=("x[i]", "b[j]", "parity", "0", "1", "'('"))
        raise ParseError(f"unexpected {tok.value or 'end of input'!r}", tok.line, tok.col,
                         expected=("x[i]", "b[j]", "parity", "0", "1", "'('", "'!'"))

    def reference(self) -> DslExpr:
        name = self.advance()
        self.expect("LBRACK", "'['")
        idx_tok = self.expect("INT", "index")
        self.expect("RBRACK", "']'")
        index = int(idx_tok.value)
        bound = self.n if name.value == "x" else self.m
        if bound is not None and index >= bound:
            raise ParseError(
                f"index {name.value}[{index}] out of range (declared width {bound})",
                idx_tok.line, idx_tok.col,
                expected=(f"index below {bound}",),
            )
        return Ref(name.value, index)

    def parity(self) -> DslExpr:
        self.advance()
        self.expect("LPAREN", "'('")
        reg = self.expect("NAME", "'x'", "'b'")
        if reg.value not in ("x", "b"):
            raise ParseError(f"parity cannot fold {reg.value!r}", reg.line, reg.col,
                             expected=("x", "b", "x & b"))
        arg = reg.value
        if arg == "x" and self.peek().type == "AMP":
            self.advance()
            other = self.expect("NAME", "'b'")
            if other.value != "b":
                raise ParseError("parity fold must be x & b", other.line, other.col,
                                 expected=("b",))
            arg = "x&b"
        self.expect("RPAREN", "')'")
        return Parity(arg)


def parse_dsl(text: str, n: int | None = None, m: int | None = None) -> DslExpr:
    """Parse an expression; index bounds are checked when n and m are given."""
    return _Parser(_tokenize(text), n, m).parse()


# -- printer and evaluator -----------------------------------------------------


def _prec(expr: DslExpr) -> int:
    if isinstance(expr, BinOp):
        return _PRECEDENCE[expr.op]
    if isinstance(expr, Not):
        return 4
    return 5


def print_dsl(expr: DslExpr) -> str:
    if isinstance(expr, Lit):
        return str(expr.value)
    if isinstance(expr, Ref):
        return f"{expr.reg}[{expr.index}]"
    if isinstance(expr, Parity):
        return "parity(x & b)" if expr.arg == "x&b" else f"parity({expr.arg})"
    if isinstance(expr, Not):
        inner = print_dsl(expr.child)
        if _prec(expr.child) < 4:
            inner = f"({inner})"
        return f"!{inner}"
    prec = _PRECEDENCE[expr.op]
    left = print_dsl(expr.left)
    if _prec(expr.left) < prec:
        left = f"({left})"
    right = print_dsl(expr.right)
    if _prec(expr.right) <= prec:
        right = f"({right})"
    return f"{left} {expr.op} {right}"


def eval_dsl(expr: DslExpr, x: Bits, b: Bits) -> int:
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Ref):
        bits = x if expr.reg == "x" else b
        return bits[expr.index]
    if isinstance(expr, Not):
        return 1 - eval_dsl(expr.child, x, b)
    if isinstance(expr, Parity):
        if expr.arg == "x":
            values = x
        elif expr.arg == "b":
            values = b
        else:
            values = tuple(xi & bi for xi, bi in zip(x, b))
        acc = 0
        for v in values:
            acc ^= v
        return acc
    return _OPS[expr.op](eval_dsl(expr.left, x, b), eval_dsl(expr.right, x, b))


@lru_cache(maxsize=None)
def branch_bit_masks(m: int) -> tuple[int, ...]:
    """Bit-sliced branch register: entry j is the accept mask of b[j].

    b[j] is bit m-1-j of key_of(b), so its mask repeats a block of w zeros
    and then w ones (low bits first) with w = 2**(m-1-j)."""
    full = full_mask(m)
    masks = []
    for j in range(m):
        w = 1 << (m - 1 - j)
        masks.append((((1 << w) - 1) << w) * (full // ((1 << 2 * w) - 1)))
    return tuple(masks)


def mask_dsl(expr: DslExpr, x: Bits, m: int) -> int:
    """The accept mask of expr at input x over m branch bits: bit key_of(b)
    is eval_dsl(expr, x, b), for all 2**m branches in O(|expr|) int ops."""
    full = full_mask(m)
    b_masks = branch_bit_masks(m)

    def value(expr: DslExpr) -> int:
        if isinstance(expr, Lit):
            return full if expr.value else 0
        if isinstance(expr, Ref):
            if expr.reg == "b":
                return b_masks[expr.index]
            return full if x[expr.index] else 0
        if isinstance(expr, Not):
            return value(expr.child) ^ full
        if isinstance(expr, Parity):
            if expr.arg == "x":
                return full if sum(x) & 1 else 0
            acc = 0
            for j, bit in enumerate(b_masks):
                if expr.arg == "b" or (j < len(x) and x[j]):
                    acc ^= bit
            return acc
        return _OPS[expr.op](value(expr.left), value(expr.right))

    return value(expr)


def dsl_verifier(text: str, n: int, m: int, name: str | None = None) -> Verifier:
    """Compile an expression into a verifier over n input and m branch bits."""
    expr = parse_dsl(text, n, m)
    return Verifier(n, m, lambda x, b: eval_dsl(expr, x, b), name=name or print_dsl(expr),
                    mask_fn=lambda x: mask_dsl(expr, x, m))
