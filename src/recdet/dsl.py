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
first character.  Division denominators must be structurally x-free;
denominators that vanish for some k are a runtime error tied to
first_valid_k, with a best-effort parse-time probe at a few sample k.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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

class Expr:
    """Base class of the expression AST."""

    __slots__ = ()


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class CoeffDef:
    name: str
    args: tuple[str, ...]
    expr: Expr


@dataclass(frozen=True)
class SpecDocument:
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


class _Cursor:
    def __init__(self, tokens: list[_Token], line_no: int, line_len: int) -> None:
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no
        self.eol_col = line_len + 1

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def peek_kind(self) -> str | None:
        t = self.peek()
        return t.kind if t else None

    def take(self) -> _Token:
        t = self.peek()
        if t is None:
            raise SpecSyntaxError(self.line_no, self.eol_col, "unexpected end of line")
        self.pos += 1
        return t

    def expect(self, kind: str, what: str | None = None) -> _Token:
        t = self.peek()
        label = what or f"'{kind}'"
        if t is None:
            raise SpecSyntaxError(self.line_no, self.eol_col, f"expected {label}")
        if t.kind != kind:
            raise SpecSyntaxError(t.line, t.col, f"expected {label}, found {t.text!r}")
        self.pos += 1
        return t

    def expect_end(self) -> None:
        t = self.peek()
        if t is not None:
            raise SpecSyntaxError(t.line, t.col, f"expected end of line, found {t.text!r}")


# --- expression parser (precedence climbing) ------------------------------

def _parse_expr(cur: _Cursor) -> Expr:
    node = _parse_term(cur)
    while cur.peek_kind() in ("+", "-"):
        op = cur.take()
        rhs = _parse_term(cur)
        node = Add(node, rhs) if op.kind == "+" else Sub(node, rhs)
    return node


def _parse_term(cur: _Cursor) -> Expr:
    node = _parse_factor(cur)
    while cur.peek_kind() in ("*", "/"):
        op = cur.take()
        rhs = _parse_factor(cur)
        node = Mul(node, rhs) if op.kind == "*" else Div(node, rhs)
    return node


def _parse_factor(cur: _Cursor) -> Expr:
    t = cur.peek()
    if t is None:
        raise SpecSyntaxError(cur.line_no, cur.eol_col, "expected expression")
    if t.kind == "-":
        cur.take()
        return Neg(_parse_factor(cur))
    if t.kind == "INT":
        cur.take()
        return IntLit(_int_literal(t))
    if t.kind == "IDENT" and t.text in ("k", "i", "x"):
        cur.take()
        return Var(t.text)
    if t.kind == "(":
        cur.take()
        node = _parse_expr(cur)
        cur.expect(")")
        return node
    raise SpecSyntaxError(t.line, t.col, f"expected expression, found {t.text!r}")


# --- document parser ------------------------------------------------------

_MODES = ("fixed-order", "full-history")
_RINGS = ("rational", "poly")
_COEFF_NAME_RE = re.compile(r"p([1-9][0-9]*)?\Z")


def parse(text: str) -> SpecDocument:
    """Parse and validate a spec document.

    Raises SpecSyntaxError with a line/column position for grammar
    violations and SpecSemanticError for inconsistent content
    (duplicate keys, wrong arity, x in a denominator, i outside
    full-history coefficients, vanishing probe denominators, ...).
    """
    seen: dict[str, int] = {}
    mode: str | None = None
    ring: str | None = None
    order: int | None = None
    first_valid_k: int | None = None
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
            expr = _parse_expr(cur)
            cur.expect_end()
            if any(c.name == name_tok.text for c, _ in coeffs):
                raise SpecSemanticError(
                    f"duplicate coefficient {name_tok.text!r}", line=line_no
                )
            coeffs.append((CoeffDef(name_tok.text, tuple(args), expr), line_no))
            continue

        if key not in ("mode", "ring", "order", "initial", "first_valid_k"):
            raise SpecSyntaxError(key_tok.line, key_tok.col, f"unknown key {key!r}")
        if key in seen:
            raise SpecSemanticError(f"duplicate key {key!r}", line=line_no)
        seen[key] = line_no
        eq = cur.expect("=")

        if key in ("mode", "ring"):
            value = raw_line[eq.col :].strip()
            if key == "mode":
                if value not in _MODES:
                    raise SpecSemanticError(
                        f"mode must be one of {', '.join(_MODES)}, got {value!r}",
                        line=line_no,
                    )
                mode = value
            else:
                if value not in _RINGS:
                    raise SpecSemanticError(
                        f"ring must be one of {', '.join(_RINGS)}, got {value!r}",
                        line=line_no,
                    )
                ring = value
            continue

        if key in ("order", "first_valid_k"):
            num = cur.expect("INT", "an integer")
            cur.expect_end()
            if key == "order":
                order = _int_literal(num)
            else:
                first_valid_k = _int_literal(num)
            continue

        # key == "initial"
        if cur.peek_kind() == "[":
            cur.take()
            exprs = [_parse_expr(cur)]
            while cur.peek_kind() == ",":
                cur.take()
                exprs.append(_parse_expr(cur))
            cur.expect("]")
            cur.expect_end()
            initials = tuple(exprs)
            initial_is_list = True
        else:
            expr = _parse_expr(cur)
            cur.expect_end()
            initials = (expr,)
            initial_is_list = False

    return _validate(
        mode, ring, order, first_valid_k, initials, initial_is_list, coeffs, seen
    )


def _validate(
    mode: str | None,
    ring: str | None,
    order: int | None,
    first_valid_k: int | None,
    initials: tuple[Expr, ...] | None,
    initial_is_list: bool,
    coeffs: list[tuple[CoeffDef, int]],
    seen: dict[str, int],
) -> SpecDocument:
    if mode is None:
        raise SpecSemanticError("missing key: mode")
    ring = ring or "rational"

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
        by_name = {c.name: (c, ln) for c, ln in coeffs}
        for want in expected:
            if want not in by_name:
                raise SpecSemanticError(f"missing coefficient {want}")
        for c, ln in coeffs:
            if c.name not in expected:
                raise SpecSemanticError(
                    f"unexpected coefficient {c.name!r} for order {order}", line=ln
                )
            if c.args != ("k",):
                raise SpecSemanticError(
                    f"{c.name} must take exactly (k)", line=ln
                )
        ordered = tuple(by_name[name][0] for name in expected)
        doc = SpecDocument(
            mode=mode,
            ring=ring,
            order=order,
            initials=initials,
            coeffs=ordered,
            first_valid_k=first_valid_k,
        )
        fvk = first_valid_k if first_valid_k is not None else order + 1
        runs = [(list(range(fvk, fvk + 2 * order + 1)), None)]
        hint = "raise first_valid_k or fix the coefficient"
        _probe(doc, _check_vars(doc, coeffs, seen), ("k",), runs, hint)
        return doc

    # full-history
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
    doc = SpecDocument(
        mode=mode,
        ring=ring,
        order=None,
        initials=initials,
        coeffs=(cdef,),
        first_valid_k=None,
    )
    runs = [(kk, list(range(1, kk + 1))) for kk in range(1, 7)]
    hint = "full-history coefficients must be defined for all 1 <= i <= k"
    _probe(doc, _check_vars(doc, coeffs, seen), ("k", "i"), runs, hint)
    return doc


_Facts = tuple[frozenset[str], bool, tuple[int, int, int]]


def _facts(e: Expr) -> _Facts:
    """One walk of e: its variables, whether x is in some denominator,
    and the (adds, muls, divs) eval_expr counts for it."""
    if isinstance(e, Neg):
        return _facts(e.operand)
    if not isinstance(e, (Add, Sub, Mul, Div)):
        return frozenset((e.name,) if isinstance(e, Var) else ()), False, (0, 0, 0)
    names, x_below, ops = _facts(e.left)
    right, x_right, right_ops = _facts(e.right)
    t = type(e)
    this = (t is Add or t is Sub, t is Mul, t is Div)
    x_below = x_below or x_right or t is Div and "x" in right
    return names | right, x_below, tuple(map(sum, zip(ops, right_ops, this)))


def _check_vars(
    doc: SpecDocument, coeffs: list[tuple[CoeffDef, int]], seen: dict[str, int]
) -> list[tuple[CoeffDef, int, _Facts]]:
    """Refuse a variable where the document may not use it, and x in a
    denominator; each coefficient comes back with its line and its
    facts (see _facts), in document order, for _probe."""
    init_line = seen.get("initial")
    for e in doc.initials:
        vs, x_below, _ = _facts(e)
        if "k" in vs or "i" in vs:
            raise SpecSemanticError(
                "initial values must be constants (no k or i)", line=init_line
            )
        if "x" in vs and doc.ring != "poly":
            raise SpecSemanticError(
                "x requires ring = poly", line=init_line
            )
        if x_below:
            raise SpecSemanticError(
                "denominators must be x-free", line=init_line
            )
    checked = []
    for c, ln in coeffs:
        facts = _facts(c.expr)
        vs, x_below, _ = facts
        if "i" in vs and doc.mode == "fixed-order":
            raise SpecSemanticError(
                "variable i is only available in full-history coefficients", line=ln
            )
        if "x" in vs and doc.ring != "poly":
            raise SpecSemanticError("x requires ring = poly", line=ln)
        if x_below:
            raise SpecSemanticError("denominators must be x-free", line=ln)
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
    if isinstance(e, IntLit):
        return Fraction(e.value)
    if isinstance(e, Var):
        if e.name == "x":
            return Polynomial.x()
        bound = k if e.name == "k" else i
        if bound is None:
            raise RecdetError(f"variable {e.name!r} is not bound")
        return Fraction(bound)
    if isinstance(e, Neg):
        return -eval_expr(e.operand, k, i)
    if isinstance(e, Add):
        return ring_add(eval_expr(e.left, k, i), eval_expr(e.right, k, i))
    if isinstance(e, Sub):
        return ring_sub(eval_expr(e.left, k, i), eval_expr(e.right, k, i))
    if isinstance(e, Mul):
        return ring_mul(eval_expr(e.left, k, i), eval_expr(e.right, k, i))
    if isinstance(e, Div):
        num = eval_expr(e.left, k, i)
        den = eval_expr(e.right, k, i)
        if is_zero(den):
            raise _zero_denominator(k)
        return ring_exact_div(num, den)
    raise RecdetError(f"unknown expression node {type(e).__name__}")


def _zero_denominator(k: int | None) -> DivisionByZero:
    where = f" at k = {k}" if k is not None else ""
    return DivisionByZero(f"denominator is zero{where}", k=k)


# --- compilation ----------------------------------------------------------
#
# to_spec compiles each x-free coefficient once into nested closures over
# unreduced (num, den) int pairs, den != 0 (see _compile).  There is one
# compiled form: it evaluates the coefficient over a run of one index, i
# for a fixed k in full history and k in fixed order, the running index
# given as a list of ints, and every value is a pair of ints or of lists,
# an int standing for the same int at every index of the run.  The row
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

    def vector(k: _Vec, i: _Vec | None = None) -> tuple[_Vec, _Vec] | None:
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


_Vec = Union[int, list[int]]
# a factor of a separable coefficient: its compiled form, whether it
# divides, and whether it sits in a denominator and so refuses a zero
_Factor = tuple[Callable[..., tuple[_Vec, _Vec]], bool, bool]
_Runs = tuple[list[int], list[int]]


def _split(e: Expr) -> tuple[int, list[_Factor], list[_Factor]] | None:
    """e as sign * h(k) * g(i), or None where its AST does not factor so.

    e factors when it is a product or quotient of factors, with or
    without negation, each free of k (a factor of g) or free of i (of h;
    a constant goes there too); the split reads the AST only.  A factor
    under the right side of some Div refuses where it is zero, even
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
        elif isinstance(node, Neg):
            sign = -sign
            todo.append((node.operand, divides, guarded))
        elif isinstance(node, Mul):
            todo += [(node.left, divides, guarded), (node.right, divides, guarded)]
        elif isinstance(node, Div):
            todo += [(node.left, divides, guarded), (node.right, not divides, True)]
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


def _refuse(k: _Vec, i: _Vec | None) -> tuple[_Vec, _Vec]:
    raise _Refused


def _compile(e: Expr, bound: tuple[str, ...]) -> Callable[..., tuple[_Vec, _Vec]]:
    """An x-free expression as a closure of (k, i), each an int or a run,
    giving an unreduced pair; it raises _Refused where eval_expr raises
    at some index."""
    if isinstance(e, IntLit):
        const = (e.value, 1)
        return lambda k, i: const
    if isinstance(e, Var):
        if e.name not in bound:
            return _refuse
        if e.name == "k":
            return lambda k, i: (k, 1)
        return lambda k, i: (i, 1)
    if isinstance(e, Neg):
        f = _compile(e.operand, bound)

        def value(k: _Vec, i: _Vec | None) -> tuple[_Vec, _Vec]:
            a, b = f(k, i)
            return _vneg(a), b

        return value
    f = _compile(e.left, bound)  # type: ignore[attr-defined]
    g = _compile(e.right, bound)  # type: ignore[attr-defined]
    if isinstance(e, (Add, Sub)):
        op = _vadd if isinstance(e, Add) else _vsub

        def value(k: _Vec, i: _Vec | None) -> tuple[_Vec, _Vec]:
            a, b = f(k, i)
            c, d = g(k, i)
            if b == d:
                return op(a, c), b
            return op(_vmul(a, d), _vmul(c, b)), _vmul(b, d)

    elif isinstance(e, Mul):

        def value(k: _Vec, i: _Vec | None) -> tuple[_Vec, _Vec]:
            a, b = f(k, i)
            c, d = g(k, i)
            return _vmul(a, c), _vmul(b, d)

    elif isinstance(e, Div):

        def value(k: _Vec, i: _Vec | None) -> tuple[_Vec, _Vec]:
            a, b = f(k, i)
            c, d = g(k, i)
            if _vhas_zero(c):
                raise _Refused
            return _vmul(a, d), _vmul(b, c)

    else:
        raise RecdetError(f"unknown expression node {type(e).__name__}")
    return value


# --- rendering ------------------------------------------------------------

_BIN_OPS = {Add: ("+", 1, True), Sub: ("-", 1, True), Mul: ("*", 2, False), Div: ("/", 2, False)}


def render_expr(e: Expr) -> str:
    return _render(e, 0)


def _render(e: Expr, min_prec: int) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        s = "-" + _render(e.operand, 3)
        prec = 3
    else:
        op, prec, spaced = _BIN_OPS[type(e)]
        glue = f" {op} " if spaced else op
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
