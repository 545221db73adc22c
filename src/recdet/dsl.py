"""Line-oriented DSL for recurrence specifications.

Grammar (EBNF):

    document   := line* ;
    line       := comment | kv ;
    comment    := "#" any* EOL ;
    kv         := key "=" value EOL ;
    key        := "mode" | "ring" | "order" | "initial"
                | "first_valid_k" | coeffkey ;
    coeffkey   := "coeff" ident "(" varlist ")" ;
    value      := intlist | expr ;
    intlist    := "[" expr ("," expr)* "]" ;
    expr       := term (("+"|"-") term)* ;
    term       := factor (("*"|"/") factor)* ;
    factor     := "-" factor | INT | "k" | "i" | "x" | "(" expr ")" ;

Fixed-order documents name their coefficients p1..pm, each a function
of k; full-history documents have a single coefficient p(k, i).  Blank
lines, and comment lines, are skipped; their blanks are those of the
lexer (space, tab, CR), so a line of other spaces is refused at its
first character.  An expression has at most MAX_EXPR_TOKENS tokens.
Division denominators must be structurally x-free; denominators that
vanish for some k are a runtime error tied to first_valid_k, with a
best-effort parse-time probe at a few sample k.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from operator import add, mul, sub
from typing import Callable, NamedTuple, Union

from .errors import (
    DivisionByZero,
    RecdetError,
    SpecSemanticError,
    SpecSyntaxError,
)
from .recurrence import FixedOrderSpec, FullHistorySpec
from .ring import (
    COUNTER,
    Polynomial,
    RingValue,
    is_zero,
    ring_add,
    ring_exact_div,
    ring_mul,
    ring_sub,
)


# --- expression AST -------------------------------------------------------

class IntLit(NamedTuple):
    value: int


class Var(NamedTuple):
    name: str


class Neg(NamedTuple):
    operand: Expr


class BinOp(NamedTuple):
    op: str  # a key of _OPS
    left: Expr
    right: Expr


Expr = Union[IntLit, Var, Neg, BinOp]


class CoeffDef(NamedTuple):
    name: str
    args: tuple[str, ...]
    expr: Expr


class SpecDocument(NamedTuple):
    """Parsed DSL document; order and first_valid_k are None when absent."""

    mode: str
    ring: str
    order: int | None
    initials: tuple[Expr, ...]
    coeffs: tuple[CoeffDef, ...]
    first_valid_k: int | None


# --- tokenizer ------------------------------------------------------------

class _Token(NamedTuple):
    kind: str  # "INT", "IDENT", or the symbol itself
    text: str
    line: int
    col: int


# Only space, tab and CR are blanks.  Digits are ASCII only: \d and
# str.isdigit also take "٣" and "²".  A word is \w+, which per character
# is str.isalnum() or "_", and must start with a letter or "_", a test
# no character class makes, so _lex_line makes it.  BAD takes any other
# character, so finditer passes over nothing but blanks at the end.
_BLANKS = " \t\r"
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:(?P<INT>[0-9]+)|(?P<IDENT>\w+)|(?P<SYM>[-+*/()\[\],=])|(?P<BAD>[^ \t\r]))"
)


def _lex_line(text: str, line_no: int) -> list[_Token]:
    toks: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok = m[kind]
        col = m.start(kind) + 1
        if kind == "SYM":
            kind = tok
        elif kind == "BAD" or kind == "IDENT" and not (tok[0].isalpha() or tok[0] == "_"):
            raise SpecSyntaxError(line_no, col, f"unexpected character {tok[0]!r}")
        toks.append(_Token(kind, tok, line_no, col))
    return toks


# The most digits an integer literal may have: CPython's default int
# digit limit (sys.get_int_max_str_digits), kept by the DSL itself so
# that a spec reads the same on a Python with no such limit, as 3.10
# has, or with the limit raised or lifted.
MAX_LITERAL_DIGITS = 4300


def _int_literal(t: _Token) -> int:
    if len(t.text) <= MAX_LITERAL_DIGITS:
        try:
            return int(t.text)
        except ValueError:  # a digit limit lowered below MAX_LITERAL_DIGITS
            pass
    raise SpecSyntaxError(
        t.line, t.col, f"integer literal of {len(t.text)} digits is too long"
    )


# The most tokens one expression may have.  Each binary operator,
# parenthesis level and unary minus costs at least one token, and every
# walk of the tree (the parser, _facts, _compile and its closures,
# eval_expr, _render) recurses once per level, so this keeps the depth
# far below Python's recursion limit.  The parser refuses the first
# token past it, before any walker sees the tree.
MAX_EXPR_TOKENS = 400


class _Cursor:
    def __init__(self, tokens: list[_Token], line_no: int, line_len: int) -> None:
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no
        self.eol_col = line_len + 1
        self.limit: int | None = None  # the position past an expression's last token

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def peek_kind(self) -> str | None:
        t = self.peek()
        return t.kind if t else None

    def take(self) -> _Token:
        t = self.peek()
        if t is None:
            raise SpecSyntaxError(self.line_no, self.eol_col, "unexpected end of line")
        if self.pos == self.limit:
            raise SpecSyntaxError(
                t.line, t.col, f"expression is longer than {MAX_EXPR_TOKENS} tokens"
            )
        self.pos += 1
        return t

    def expect(self, kind: str, what: str | None = None) -> _Token:
        t = self.peek()
        label = what or f"'{kind}'"
        if t is None:
            raise SpecSyntaxError(self.line_no, self.eol_col, f"expected {label}")
        if t.kind != kind:
            raise SpecSyntaxError(t.line, t.col, f"expected {label}, found {t.text!r}")
        return self.take()

    def expect_end(self) -> None:
        t = self.peek()
        if t is not None:
            raise SpecSyntaxError(t.line, t.col, f"expected end of line, found {t.text!r}")


# --- binary operators -----------------------------------------------------
#
# _compile's values are unreduced (num, den) pairs of _Vec, each an int or
# a run (a list) of ints, an int standing for the same int at every index
# of the run.

_Vec = Union[int, list[int]]
_Pair = tuple[_Vec, _Vec]


class _Refused(Exception):
    """A value of a run divides by zero or names an unbound variable."""


def _vneg(a: _Vec) -> _Vec:
    return -a if type(a) is int else [-x for x in a]


def _vadd(a: _Vec, b: _Vec) -> _Vec:
    if type(a) is not int:
        if type(b) is not int:
            return list(map(add, a, b))
        a, b = b, a
    elif type(b) is int:
        return a + b
    return b if a == 0 else [a + x for x in b]


def _vsub(a: _Vec, b: _Vec) -> _Vec:
    if type(b) is int:
        return _vadd(a, -b)
    if type(a) is int:
        return [a - x for x in b]
    return list(map(sub, a, b))


def _vmul(a: _Vec, b: _Vec) -> _Vec:
    if type(a) is not int:
        if type(b) is not int:
            return list(map(mul, a, b))
        a, b = b, a
    elif type(b) is int:
        return a * b
    return b if a == 1 else [a * x for x in b]


def _vhas_zero(a: _Vec) -> bool:
    return a == 0 if type(a) is int else 0 in a


def _pair_sum(op: Callable[[_Vec, _Vec], _Vec], a: _Vec, b: _Vec, c: _Vec, d: _Vec) -> _Pair:
    if b == d:
        return op(a, c), b
    return op(_vmul(a, d), _vmul(c, b)), _vmul(b, d)


def _pair_mul(a: _Vec, b: _Vec, c: _Vec, d: _Vec) -> _Pair:
    return _vmul(a, c), _vmul(b, d)


def _pair_div(a: _Vec, b: _Vec, c: _Vec, d: _Vec) -> _Pair:
    if _vhas_zero(c):
        raise _Refused
    return _vmul(a, d), _vmul(b, c)


class _Op(NamedTuple):
    prec: int  # * and / bind tighter than + and -
    glue: str  # the operator as _render writes it
    counts: tuple[int, int, int]  # the (adds, muls, divs) eval_expr counts
    ring: Callable[[RingValue, RingValue], RingValue]
    pair: Callable[..., _Pair]  # a, b, c, d -> a/b op c/d as a pair


_OPS = {
    "+": _Op(1, " + ", (1, 0, 0), ring_add, partial(_pair_sum, _vadd)),
    "-": _Op(1, " - ", (1, 0, 0), ring_sub, partial(_pair_sum, _vsub)),
    "*": _Op(2, "*", (0, 1, 0), ring_mul, _pair_mul),
    "/": _Op(2, "/", (0, 0, 1), ring_exact_div, _pair_div),
}
# a unary minus binds tighter than every binary operator
_NEG_PREC = 3


# --- expression parser (precedence climbing) ------------------------------

def _parse_value(cur: _Cursor) -> Expr:
    """One expression of at most MAX_EXPR_TOKENS tokens."""
    cur.limit = cur.pos + MAX_EXPR_TOKENS
    node = _parse_expr(cur, 1)
    cur.limit = None
    return node


def _parse_expr(cur: _Cursor, prec: int) -> Expr:
    """An operand, then each binary operator that binds at least as
    tightly as prec, with its right side, left to right."""
    t = cur.peek()
    if t is None:
        raise SpecSyntaxError(cur.line_no, cur.eol_col, "expected expression")
    if t.kind == "-":
        cur.take()
        node: Expr = Neg(_parse_expr(cur, _NEG_PREC))
    elif t.kind == "INT":
        cur.take()
        node = IntLit(_int_literal(t))
    elif t.kind == "IDENT" and t.text in ("k", "i", "x"):
        cur.take()
        node = Var(t.text)
    elif t.kind == "(":
        cur.take()
        node = _parse_expr(cur, 1)
        cur.expect(")")
    else:
        raise SpecSyntaxError(t.line, t.col, f"expected expression, found {t.text!r}")
    while (op := _OPS.get(cur.peek_kind())) and op.prec >= prec:
        node = BinOp(cur.take().kind, node, _parse_expr(cur, op.prec + 1))
    return node


# --- document parser ------------------------------------------------------

_CHOICES = {"mode": ("fixed-order", "full-history"), "ring": ("rational", "poly")}
_KEYS = (*_CHOICES, "order", "first_valid_k", "initial")
_COEFF_NAME_RE = re.compile(r"p([1-9][0-9]*)?\Z")


def parse(text: str) -> SpecDocument:
    """Parse and validate a spec document.

    Raises SpecSyntaxError with a line/column position for grammar
    violations and SpecSemanticError for inconsistent content
    (duplicate keys, wrong arity, x in a denominator, i outside
    full-history coefficients, vanishing probe denominators, ...).
    """
    seen: dict[str, int] = {}
    values: dict[str, str | int] = {}
    initials: tuple[Expr, ...] | None = None
    initial_is_list = False
    coeffs: list[tuple[CoeffDef, int]] = []

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.strip(_BLANKS)
        if not stripped or stripped.startswith("#"):
            continue
        toks = _lex_line(raw_line, line_no)
        cur = _Cursor(toks, line_no, len(raw_line))
        key_tok = cur.take()
        if key_tok.kind != "IDENT":
            raise SpecSyntaxError(key_tok.line, key_tok.col, "expected a key")
        key = key_tok.text

        if key == "coeff":
            name_tok = cur.expect("IDENT", "coefficient name")
            if not _COEFF_NAME_RE.fullmatch(name_tok.text):
                raise SpecSemanticError(
                    f"coefficient must be named p (full-history) or p1..pm, "
                    f"got {name_tok.text!r}",
                    line=line_no,
                )
            cur.expect("(")
            args = [cur.expect("IDENT", "parameter name").text]
            while cur.peek_kind() == ",":
                cur.take()
                args.append(cur.expect("IDENT", "parameter name").text)
            cur.expect(")")
            for a in args:
                if a not in ("k", "i"):
                    raise SpecSemanticError(
                        f"coefficient parameters must be k or i, got {a!r}",
                        line=line_no,
                    )
            cur.expect("=")
            expr = _parse_value(cur)
            cur.expect_end()
            if any(c.name == name_tok.text for c, _ in coeffs):
                raise SpecSemanticError(
                    f"duplicate coefficient {name_tok.text!r}", line=line_no
                )
            coeffs.append((CoeffDef(name_tok.text, tuple(args), expr), line_no))
            continue

        if key not in _KEYS:
            raise SpecSyntaxError(key_tok.line, key_tok.col, f"unknown key {key!r}")
        if key in seen:
            raise SpecSemanticError(f"duplicate key {key!r}", line=line_no)
        seen[key] = line_no
        eq = cur.expect("=")

        if key in _CHOICES:
            value = raw_line[eq.col :].strip()
            if value not in _CHOICES[key]:
                raise SpecSemanticError(
                    f"{key} must be one of {', '.join(_CHOICES[key])}, got {value!r}",
                    line=line_no,
                )
            values[key] = value
        elif key != "initial":  # order or first_valid_k
            num = cur.expect("INT", "an integer")
            cur.expect_end()
            values[key] = _int_literal(num)
        else:
            initial_is_list = cur.peek_kind() == "["
            if not initial_is_list:
                initials = (_parse_value(cur),)
            else:
                cur.take()
                exprs = [_parse_value(cur)]
                while cur.peek_kind() == ",":
                    cur.take()
                    exprs.append(_parse_value(cur))
                cur.expect("]")
                initials = tuple(exprs)
            cur.expect_end()

    return _validate(values, initials, initial_is_list, coeffs, seen)


def _validate(
    values: dict[str, str | int],
    initials: tuple[Expr, ...] | None,
    initial_is_list: bool,
    coeffs: list[tuple[CoeffDef, int]],
    seen: dict[str, int],
) -> SpecDocument:
    mode = values.get("mode")
    ring = values.get("ring", "rational")
    order = values.get("order")
    first_valid_k = values.get("first_valid_k")
    if mode is None:
        raise SpecSemanticError("missing key: mode")

    if mode == "fixed-order":
        if order is None:
            raise SpecSemanticError("missing key: order (required in fixed-order mode)")
        if order < 1:
            raise SpecSemanticError("order must be at least 1", line=seen.get("order"))
        if initials is None:
            raise SpecSemanticError("missing key: initial")
        if not initial_is_list:
            raise SpecSemanticError(
                "fixed-order initial must be a bracketed list [a1, ..., am]",
                line=seen.get("initial"),
            )
        if len(initials) != order:
            raise SpecSemanticError(
                f"order = {order} but initial has {len(initials)} entries",
                line=seen.get("initial"),
            )
        if first_valid_k is not None and first_valid_k < order + 1:
            raise SpecSemanticError(
                f"first_valid_k must be at least order + 1 = {order + 1}",
                line=seen.get("first_valid_k"),
            )
        expected = [f"p{j}" for j in range(1, order + 1)]
        by_name = {c.name: c for c, _ in coeffs}
        for want in expected:
            if want not in by_name:
                raise SpecSemanticError(f"missing coefficient {want}")
        for c, ln in coeffs:
            if c.name not in expected:
                raise SpecSemanticError(
                    f"unexpected coefficient {c.name!r} for order {order}", line=ln
                )
            if c.args != ("k",):
                raise SpecSemanticError(f"{c.name} must take exactly (k)", line=ln)
        ordered = tuple(by_name[name] for name in expected)
        fvk = first_valid_k if first_valid_k is not None else order + 1
        bound = ("k",)
        runs = [(list(range(fvk, fvk + 2 * order + 1)), None)]
        hint = "raise first_valid_k or fix the coefficient"
    else:  # full-history
        if order is not None:
            raise SpecSemanticError(
                "order is not allowed in full-history mode", line=seen.get("order")
            )
        if first_valid_k is not None:
            raise SpecSemanticError(
                "first_valid_k is not allowed in full-history mode",
                line=seen.get("first_valid_k"),
            )
        if initials is None:
            raise SpecSemanticError("missing key: initial")
        if initial_is_list:
            raise SpecSemanticError(
                "full-history initial must be a single expression, not a list",
                line=seen.get("initial"),
            )
        if not coeffs:
            raise SpecSemanticError("missing coefficient p(k, i)")
        if len(coeffs) > 1:
            raise SpecSemanticError(
                "full-history mode takes a single coefficient p(k, i)",
                line=coeffs[1][1],
            )
        cdef, ln = coeffs[0]
        if cdef.name != "p":
            raise SpecSemanticError(
                f"full-history coefficient must be named p, got {cdef.name!r}", line=ln
            )
        if cdef.args != ("k", "i"):
            raise SpecSemanticError("p must take exactly (k, i)", line=ln)
        ordered = (cdef,)
        bound = ("k", "i")
        runs = [(kk, list(range(1, kk + 1))) for kk in range(1, 7)]
        hint = "full-history coefficients must be defined for all 1 <= i <= k"
    doc = SpecDocument(mode, ring, order, initials, ordered, first_valid_k)
    _probe(doc, _check_vars(doc, coeffs, seen), bound, runs, hint)
    return doc


_Facts = tuple[frozenset[str], bool, tuple[int, int, int]]


def _facts(e: Expr) -> _Facts:
    """One walk of e: its variables, whether x is in some denominator,
    and the (adds, muls, divs) eval_expr counts for it."""
    t = type(e)
    if t is BinOp:
        names, x_below, ops = _facts(e.left)
        right, x_right, right_ops = _facts(e.right)
        x_below = x_below or x_right or e.op == "/" and "x" in right
        return names | right, x_below, tuple(map(sum, zip(ops, right_ops, _OPS[e.op].counts)))
    if t is Neg:
        return _facts(e.operand)
    return frozenset((e.name,) if t is Var else ()), False, (0, 0, 0)


def _check_vars(
    doc: SpecDocument, coeffs: list[tuple[CoeffDef, int]], seen: dict[str, int]
) -> list[tuple[CoeffDef, int, _Facts]]:
    """Refuse a variable where the document may not use it, and x in a
    denominator, in the initials and then in the coefficients; each
    coefficient comes back with its line and its facts (see _facts), in
    document order, for _probe."""
    constants = "initial values must be constants (no k or i)"
    no_i = "variable i is only available in full-history coefficients"
    fixed = doc.mode == "fixed-order"
    items = [(e, None, seen.get("initial"), ("k", "i"), constants) for e in doc.initials]
    items += [(c.expr, c, ln, ("i",) if fixed else (), no_i) for c, ln in coeffs]
    checked = []
    for e, c, ln, banned, why in items:
        facts = vs, x_below, _ = _facts(e)
        if any(v in vs for v in banned):
            raise SpecSemanticError(why, line=ln)
        if "x" in vs and doc.ring != "poly":
            raise SpecSemanticError("x requires ring = poly", line=ln)
        if x_below:
            raise SpecSemanticError("denominators must be x-free", line=ln)
        if c is not None:
            checked.append((c, ln, facts))
    return checked


def _probe(
    doc: SpecDocument,
    coeffs: list[tuple[CoeffDef, int, _Facts]],
    bound: tuple[str, ...],
    runs: list[tuple[_Vec, _Vec | None]],
    hint: str,
) -> None:
    """Best-effort guard: no initial, and no coefficient at a point of runs
    (each i of a run (k, i), each k of a run (k, None)), divides by zero.
    The coefficients go in document order, each by one run of its compiled
    form (see _compile) per entry of runs; COUNTER then gets the ops
    eval_expr would count at each point, in bulk as recurrence._count adds
    them.  While bits are tracked, for a coefficient with x, or when a run
    refuses, it goes point by point with eval_expr instead, which names
    the first point that fails, followed by hint, and gives the error
    text, counts and max_bits."""
    for e in doc.initials:
        try:
            eval_expr(e)
        except DivisionByZero:
            raise SpecSemanticError("initial value divides by zero") from None
    points: list[tuple[int, int | None]] = []
    for k, i in runs:
        points += [(kk, None) for kk in k] if i is None else [(k, ii) for ii in i]
    for cdef, ln, (vs, _, (adds, muls, divs)) in coeffs:
        if not COUNTER.track_bits and "x" not in vs:
            run = _compile(cdef.expr, bound)
            try:
                for k, i in runs:
                    run(k, i)
            except _Refused:
                pass
            else:
                COUNTER.adds += adds * len(points)
                COUNTER.muls += muls * len(points)
                COUNTER.divs += divs * len(points)
                continue
        for kk, ii in points:
            try:
                eval_expr(cdef.expr, kk, ii)
            except DivisionByZero:
                at = kk if ii is None else f"{kk}, {ii}"
                raise SpecSemanticError(
                    f"{cdef.name}({at}) divides by zero; {hint}", line=ln
                ) from None


# --- evaluation -----------------------------------------------------------

def eval_expr(e: Expr, k: int | None = None, i: int | None = None) -> RingValue:
    """Evaluate an expression with k and i bound to integers.

    x stays symbolic as the degree-1 polynomial; a vanishing denominator
    raises DivisionByZero carrying the offending k.
    """
    t = type(e)
    if t is BinOp:
        left = eval_expr(e.left, k, i)
        right = eval_expr(e.right, k, i)
        if e.op == "/" and is_zero(right):
            raise _zero_denominator(k)
        return _OPS[e.op].ring(left, right)
    if t is IntLit:
        return Fraction(e.value)
    if t is Neg:
        return -eval_expr(e.operand, k, i)
    if e.name == "x":
        return Polynomial.x()
    bound = k if e.name == "k" else i
    if bound is None:
        raise RecdetError(f"variable {e.name!r} is not bound")
    return Fraction(bound)


def _zero_denominator(k: int | None) -> DivisionByZero:
    where = f" at k = {k}" if k is not None else ""
    return DivisionByZero(f"denominator is zero{where}", k=k)


# --- compilation ----------------------------------------------------------
#
# to_spec compiles each x-free coefficient once into nested closures over
# unreduced (num, den) pairs, den != 0 (see _compile).  There is one
# compiled form: it evaluates the coefficient over a run of one index, i
# for a fixed k in full history and k in fixed order, the running index
# given as a list of ints, and every value is a pair of _Vec.  The row
# table, recurrence._Rows, computes whole rows by runs; a call at one
# (k, i) runs the same closures at int k and i, which the run arithmetic
# takes as one-point runs.  A value that eval_expr would refuse, by a zero
# denominator or an unbound variable, raises _Refused for the whole run,
# and nothing is added to COUNTER.  A coefficient that contains x (poly
# ring) calls eval_expr, which stays the reference the compiled closures
# must agree with.  A full-history coefficient whose AST factors as
# h(k) * g(i) (see _split) has one more form, the runs of h and g over
# 1..n (see _factored), from which recurrence._Rows takes the whole
# triangle in O(n).


def _compile_coeff(e: Expr, bound: tuple[str, ...]) -> Callable[..., RingValue]:
    """e as a coefficient function of k (and i when bound names it).

    It equals eval_expr(e, k, i), raises what eval_expr raises, and on
    success adds the same ring ops to COUNTER.  While COUNTER tracks bits
    it defers to eval_expr, so max_bits still sees every intermediate.
    An x-free e also gets its vector form as the function's attribute
    vector, and the (adds, muls, divs) one value costs as its attribute
    ops: a row table computes a row by one run of vector and adds ops
    once per value of it to COUNTER, as that many calls would.  A
    full-history e that factors (see _split) also gets the attribute
    factored, n -> the runs of h and g (see _factored).
    """
    vs, _, (adds, muls, divs) = _facts(e)
    if "x" in vs:
        return lambda k, i=None: eval_expr(e, k, i)
    run = _compile(e, bound)

    def coeff(k: int, i: int | None = None) -> RingValue:
        c = COUNTER
        if c.track_bits:
            return eval_expr(e, k, i)
        try:
            v = Fraction(*run(k, i))
        except _Refused:
            # eval_expr raises the error, with its k; a value that fails
            # adds nothing to COUNTER
            saved = c.adds, c.muls, c.divs
            try:
                return eval_expr(e, k, i)
            finally:
                c.adds, c.muls, c.divs = saved
        c.adds += adds
        c.muls += muls
        c.divs += divs
        return v

    def vector(k: _Vec, i: _Vec | None = None) -> _Pair | None:
        try:
            return run(k, i)
        except _Refused:
            return None

    coeff.vector = vector  # type: ignore[attr-defined]
    coeff.ops = (adds, muls, divs)  # type: ignore[attr-defined]
    factors = _split(e) if bound == ("k", "i") else None
    if factors is not None:
        coeff.factored = partial(_factored, *factors)  # type: ignore[attr-defined]
    return coeff


# a factor of a separable coefficient: its compiled form, whether it
# divides, and whether it sits in a denominator and so refuses a zero
_Factor = tuple[Callable[..., _Pair], bool, bool]
_Runs = tuple[list[int], list[int]]


def _split(e: Expr) -> tuple[int, list[_Factor], list[_Factor]] | None:
    """e as sign * h(k) * g(i), or None where its AST does not factor so.

    e factors when it is a product or quotient of factors, with or
    without negation, each free of k (a factor of g) or free of i (of h;
    a constant goes there too); the split reads the AST only.  A factor
    under the right side of some / refuses where it is zero, even
    where the split puts it in a numerator: that is where e's own
    division refuses, so h and g refuse where e does."""
    sign = 1
    h: list[_Factor] = []
    g: list[_Factor] = []
    todo = [(e, False, False)]
    while todo:
        node, divides, guarded = todo.pop()
        names = _facts(node)[0]
        if "k" not in names or "i" not in names:
            (g if "i" in names else h).append((_compile(node, ("k", "i")), divides, guarded))
        elif type(node) is Neg:
            sign = -sign
            todo.append((node.operand, divides, guarded))
        elif node.op in ("*", "/"):
            over = node.op == "/"
            todo += [(node.left, divides, guarded), (node.right, divides != over, guarded or over)]
        else:
            return None
    return sign, h, g


def _factored(sign: int, h: list[_Factor], g: list[_Factor], n: int) -> tuple[_Runs, _Runs] | None:
    """The factored form of a separable coefficient (see _split): h's run
    over k = 1..n and g's over i = 1..n, each as (nums, dens), unreduced
    ints with every den > 0, so that p(k, i) = h(k) * g(i); None where
    either run refuses, which is where eval_expr refuses at some
    1 <= i <= k <= n, since the triangle meets every k and every i."""
    run = list(range(1, n + 1))
    runs = []
    for factors, num in ((h, sign), (g, 1)):
        den: _Vec = 1
        for f, divides, guarded in factors:
            try:
                a, b = f(run, run)
            except _Refused:
                return None
            if guarded and _vhas_zero(a):
                return None
            if divides:
                a, b = b, a
            num, den = _vmul(num, a), _vmul(den, b)
        nums = num if type(num) is list else [num] * n
        dens = den if type(den) is list else [den] * n
        if min(dens, default=1) < 0:
            nums = [-a if b < 0 else a for a, b in zip(nums, dens)]
            dens = list(map(abs, dens))
        runs.append((nums, dens))
    return runs[0], runs[1]


def _refuse(k: _Vec, i: _Vec | None) -> _Pair:
    raise _Refused


def _compile(e: Expr, bound: tuple[str, ...]) -> Callable[..., _Pair]:
    """An x-free expression as a closure of (k, i), each an int or a run,
    giving an unreduced pair; it raises _Refused where eval_expr raises
    at some index."""
    t = type(e)
    if t is BinOp:
        f, g, pair = _compile(e.left, bound), _compile(e.right, bound), _OPS[e.op].pair
        return lambda k, i: pair(*f(k, i), *g(k, i))
    if t is IntLit:
        const = (e.value, 1)
        return lambda k, i: const
    if t is Neg:
        f = _compile(e.operand, bound)

        def value(k: _Vec, i: _Vec | None) -> _Pair:
            a, b = f(k, i)
            return _vneg(a), b

        return value
    if e.name not in bound:
        return _refuse
    if e.name == "k":
        return lambda k, i: (k, 1)
    return lambda k, i: (i, 1)


# --- rendering ------------------------------------------------------------

def render_expr(e: Expr) -> str:
    return _render(e, 0)


def _render(e: Expr, min_prec: int) -> str:
    t = type(e)
    if t is IntLit:
        return str(e.value)
    if t is Var:
        return e.name
    if t is Neg:
        prec = _NEG_PREC
        s = "-" + _render(e.operand, prec)
    else:
        prec, glue = _OPS[e.op][:2]
        s = _render(e.left, prec) + glue + _render(e.right, prec + 1)
    return f"({s})" if prec < min_prec else s


def render(doc: SpecDocument) -> str:
    """Canonical text for a document: parse(render(doc)) == doc."""
    lines = [f"mode = {doc.mode}", f"ring = {doc.ring}"]
    if doc.mode == "fixed-order":
        lines.append(f"order = {doc.order}")
        lines.append("initial = [" + ", ".join(render_expr(e) for e in doc.initials) + "]")
        if doc.first_valid_k is not None:
            lines.append(f"first_valid_k = {doc.first_valid_k}")
    else:
        lines.append(f"initial = {render_expr(doc.initials[0])}")
    for c in doc.coeffs:
        lines.append(f"coeff {c.name}({', '.join(c.args)}) = {render_expr(c.expr)}")
    return "\n".join(lines) + "\n"


# --- spec construction ----------------------------------------------------

def to_spec(doc: SpecDocument, name: str = "spec") -> FullHistorySpec | FixedOrderSpec:
    """Build the evaluable spec behind a parsed document; each coefficient
    is compiled once (see _compile_coeff)."""
    if doc.mode == "full-history":
        init = eval_expr(doc.initials[0])
        coeff = _compile_coeff(doc.coeffs[0].expr, ("k", "i"))
        return FullHistorySpec(initial=init, coeff=coeff, name=name)

    m = doc.order or 1
    init_values = tuple(eval_expr(e) for e in doc.initials)
    funcs = tuple(_compile_coeff(c.expr, ("k",)) for c in doc.coeffs)
    fvk = doc.first_valid_k if doc.first_valid_k is not None else m + 1
    return FixedOrderSpec(
        order=m, initials=init_values, coeffs=funcs, first_valid_k=fvk, name=name
    )
