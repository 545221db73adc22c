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
lines are skipped.  Division denominators must be structurally x-free;
denominators that vanish for some k are a runtime error tied to
first_valid_k, with a best-effort parse-time probe at a few sample k.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, neg, not_, sub
from typing import Callable, Iterator, NamedTuple, Union

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


_SYMBOLS = "+-*/()[],="


def _lex_line(text: str, line_no: int) -> list[_Token]:
    toks: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r":
            i += 1
            continue
        col = i + 1
        if "0" <= ch <= "9":  # ASCII only: str.isdigit also takes "²" and "٣"
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            toks.append(_Token("INT", text[i:j], line_no, col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("IDENT", text[i:j], line_no, col))
            i = j
        elif ch in _SYMBOLS:
            toks.append(_Token(ch, ch, line_no, col))
            i += 1
        else:
            raise SpecSyntaxError(line_no, col, f"unexpected character {ch!r}")
    return toks


def _int_literal(t: _Token) -> int:
    try:
        return int(t.text)
    except ValueError:  # more digits than sys.get_int_max_str_digits allows
        raise SpecSyntaxError(
            t.line, t.col, f"integer literal of {len(t.text)} digits is too long"
        ) from None


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
        stripped = raw_line.strip()
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
        _check_vars(doc, coeffs, seen)
        _probe_fixed(doc, by_name)
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
    _check_vars(doc, coeffs, seen)
    _probe_full(doc, ln)
    return doc


def _nodes(e: Expr) -> Iterator[Expr]:
    """e and every node below it, in preorder."""
    yield e
    if isinstance(e, Neg):
        yield from _nodes(e.operand)
    elif not isinstance(e, (IntLit, Var)):
        yield from _nodes(e.left)  # type: ignore[attr-defined]
        yield from _nodes(e.right)  # type: ignore[attr-defined]


def _vars_of(e: Expr) -> set[str]:
    return {n.name for n in _nodes(e) if isinstance(n, Var)}


def _denominator_has_x(e: Expr) -> bool:
    return any(isinstance(n, Div) and "x" in _vars_of(n.right) for n in _nodes(e))


def _check_vars(
    doc: SpecDocument, coeffs: list[tuple[CoeffDef, int]], seen: dict[str, int]
) -> None:
    init_line = seen.get("initial")
    for e in doc.initials:
        vs = _vars_of(e)
        if "k" in vs or "i" in vs:
            raise SpecSemanticError(
                "initial values must be constants (no k or i)", line=init_line
            )
        if "x" in vs and doc.ring != "poly":
            raise SpecSemanticError(
                "x requires ring = poly", line=init_line
            )
        if _denominator_has_x(e):
            raise SpecSemanticError(
                "denominators must be x-free", line=init_line
            )
    for c, ln in coeffs:
        vs = _vars_of(c.expr)
        if "i" in vs and doc.mode == "fixed-order":
            raise SpecSemanticError(
                "variable i is only available in full-history coefficients", line=ln
            )
        if "x" in vs and doc.ring != "poly":
            raise SpecSemanticError("x requires ring = poly", line=ln)
        if _denominator_has_x(c.expr):
            raise SpecSemanticError("denominators must be x-free", line=ln)


def _probe_fixed(doc: SpecDocument, by_name: dict[str, tuple[CoeffDef, int]]) -> None:
    """Best-effort guard: every initial, and every coefficient at the 2m + 1
    sample k from first_valid_k on, must not divide by zero.  A
    coefficient goes by one run of k (see _probe_runs), else point by
    point with eval_expr, which names the first k that fails."""
    m = doc.order or 1
    fvk = doc.first_valid_k if doc.first_valid_k is not None else m + 1
    ks = range(fvk, fvk + 2 * m + 1)
    for e in doc.initials:
        try:
            eval_expr(e)
        except DivisionByZero:
            raise SpecSemanticError("initial value divides by zero") from None
    for name, (cdef, ln) in by_name.items():
        if _probe_runs(cdef.expr, ("k",), [(list(ks), None)]):
            continue
        for kk in ks:
            try:
                eval_expr(cdef.expr, k=kk)
            except DivisionByZero:
                raise SpecSemanticError(
                    f"{name}({kk}) divides by zero; raise first_valid_k or fix "
                    "the coefficient",
                    line=ln,
                ) from None


def _probe_full(doc: SpecDocument, ln: int) -> None:
    """Best-effort guard: the initial, and p(k, i) for 1 <= i <= k <= 6,
    must not divide by zero.  p goes by one run of i per k (see
    _probe_runs), else point by point with eval_expr, which names the
    first (k, i) that fails."""
    try:
        eval_expr(doc.initials[0])
    except DivisionByZero:
        raise SpecSemanticError("initial value divides by zero") from None
    cdef = doc.coeffs[0]
    runs = [(kk, list(range(1, kk + 1))) for kk in range(1, 7)]
    if _probe_runs(cdef.expr, ("k", "i"), runs):
        return
    for kk in range(1, 7):
        for ii in range(1, kk + 1):
            try:
                eval_expr(cdef.expr, k=kk, i=ii)
            except DivisionByZero:
                raise SpecSemanticError(
                    f"p({kk}, {ii}) divides by zero; full-history coefficients "
                    "must be defined for all 1 <= i <= k",
                    line=ln,
                ) from None


def _probe_runs(e: Expr, bound: tuple[str, ...], runs: list[tuple[_Vec, _Vec | None]]) -> bool:
    """Whether e is defined at every probe point, by one run of its
    compiled form (see _compile) per (k, i) in runs, i running, or k
    where i is None.  If so COUNTER gets the ops eval_expr would count
    at each point, in bulk as _Rows._count adds them.  False, with nothing
    counted, while bits are tracked, for an e with x (a variable the
    compiled form does not bind, so every run refuses), or when a run
    refuses: the probe then goes point by point with eval_expr, which
    gives the first failing point, its error text and its counts."""
    if COUNTER.track_bits:
        return False
    run = _compile(e, bound, _ON_RUNS)
    try:
        for k, i in runs:
            run(k, i)
    except _Refused:
        return False
    points = sum(len(k if i is None else i) for k, i in runs)
    adds, muls, divs = _op_counts(e)
    COUNTER.adds += adds * points
    COUNTER.muls += muls * points
    COUNTER.divs += divs * points
    return True


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
# to_spec compiles each x-free coefficient into nested closures over
# unreduced (num, den) int pairs, den != 0 (see _compile): once for one
# (k, i), where a call builds one Fraction, and once for the runs that
# compute whole rows of recurrence._Rows, the row table that the
# determinant route and direct iteration read.  A coefficient that
# contains x (poly ring) calls eval_expr, which stays the reference the
# compiled closures must agree with.


def _op_counts(e: Expr) -> tuple[int, int, int]:
    """The adds, muls and divs eval_expr counts for e."""
    kinds = [type(n) for n in _nodes(e)]
    return kinds.count(Add) + kinds.count(Sub), kinds.count(Mul), kinds.count(Div)


def _compile_coeff(e: Expr, bound: tuple[str, ...]) -> Callable[..., RingValue]:
    """e as a coefficient function of k (and i when bound names it).

    It equals eval_expr(e, k, i), raises what eval_expr raises, and on
    success adds the same ring ops to COUNTER.  While COUNTER tracks bits
    it defers to eval_expr, so max_bits still sees every intermediate.
    An x-free e also gets its vector form as the function's attribute
    vector, and the (adds, muls, divs) one value costs as its attribute
    ops: a row table computes a row by one run of vector and adds ops
    once per value of it to COUNTER, as that many calls would.
    """
    if "x" in _vars_of(e):
        return lambda k, i=None: eval_expr(e, k, i)
    pair = _compile(e, bound, _ON_INTS)
    run = _compile(e, bound, _ON_RUNS)
    adds, muls, divs = _op_counts(e)

    def coeff(k: int, i: int | None = None) -> RingValue:
        c = COUNTER
        if c.track_bits:
            return eval_expr(e, k, i)
        try:
            v = Fraction(*pair(k, i))
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
    return coeff


# The compiled form evaluates a coefficient at one (k, i) or over a run
# of one index: i for fixed k in full history, k in fixed order.  The
# index that runs is given as a list of ints, and every value is an
# unreduced (num, den) pair of ints or of lists, an int standing for the
# same int at every index of the run.  A value that eval_expr would
# refuse, by a zero denominator or an unbound variable, raises _Refused
# for the whole run; nothing is added to COUNTER.  One compiler builds
# both forms from a table of the int arithmetic it uses: the operator
# module's for one (k, i), and list-aware ones for a run.

_Vec = Union[int, list[int]]


class _Refused(Exception):
    """A value of a run divides by zero or names an unbound variable."""


class _Arith(NamedTuple):
    neg: Callable[[_Vec], _Vec]
    add: Callable[[_Vec, _Vec], _Vec]
    sub: Callable[[_Vec, _Vec], _Vec]
    mul: Callable[[_Vec, _Vec], _Vec]
    has_zero: Callable[[_Vec], bool]


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


_ON_INTS = _Arith(neg, add, sub, mul, not_)
_ON_RUNS = _Arith(_vneg, _vadd, _vsub, _vmul, _vhas_zero)


def _refuse(k: _Vec, i: _Vec | None) -> tuple[_Vec, _Vec]:
    raise _Refused


def _compile(
    e: Expr, bound: tuple[str, ...], arith: _Arith
) -> Callable[..., tuple[_Vec, _Vec]]:
    """An x-free expression as a closure of (k, i) giving an unreduced
    pair, by arith over ints (_ON_INTS) or runs (_ON_RUNS); it raises
    _Refused where eval_expr raises at some index."""
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
        f = _compile(e.operand, bound, arith)
        negate = arith.neg

        def value(k: _Vec, i: _Vec | None) -> tuple[_Vec, _Vec]:
            a, b = f(k, i)
            return negate(a), b

        return value
    f = _compile(e.left, bound, arith)  # type: ignore[attr-defined]
    g = _compile(e.right, bound, arith)  # type: ignore[attr-defined]
    times = arith.mul
    if isinstance(e, (Add, Sub)):
        op = arith.add if isinstance(e, Add) else arith.sub

        def value(k: _Vec, i: _Vec | None) -> tuple[_Vec, _Vec]:
            a, b = f(k, i)
            c, d = g(k, i)
            if b == d:
                return op(a, c), b
            return op(times(a, d), times(c, b)), times(b, d)

    elif isinstance(e, Mul):

        def value(k: _Vec, i: _Vec | None) -> tuple[_Vec, _Vec]:
            a, b = f(k, i)
            c, d = g(k, i)
            return times(a, c), times(b, d)

    elif isinstance(e, Div):
        has_zero = arith.has_zero

        def value(k: _Vec, i: _Vec | None) -> tuple[_Vec, _Vec]:
            a, b = f(k, i)
            c, d = g(k, i)
            if has_zero(c):
                raise _Refused
            return times(a, d), times(b, c)

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
