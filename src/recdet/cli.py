"""Command-line front end: eval, matrix, verify, family, bench.

Exit codes: 0 success, 1 parse or usage error, 2 evaluation error,
3 verification mismatch; an error's code is its class's exit_code.  The
SPEC argument of eval/matrix/verify is a .rec file path; a name that is
not an existing file is looked up in the family catalog instead.
RECDET_COLOR=0 disables ANSI styling, =1 forces it; otherwise styling
follows isatty.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import RecdetError, SizeTooLarge
from .families import (
    FamilyId,
    family_names,
    family_oracles,
    family_ring,
    family_spec,
)
from .hessenberg import (
    DET_FUNCTIONS,
    LAPLACE_SIZE_LIMIT,
    matrix_to_json,
    matrix_to_latex,
    matrix_to_text,
    random_hessenberg,
)
from .recurrence import (
    FixedOrderSpec,
    FullHistorySpec,
    determinant_terms,
    eval_fixed_order,
    eval_full_history,
    spec_matrix,
    verify_spec,
)
from .ring import COUNTER, latex_value, render_value

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 3

# The most terms eval and family compute; a larger --n raises
# SizeTooLarge before any term is computed.  Both hold every term before
# they print.  Of the shipped families, fibonacci-num's terms outgrow
# memory fastest at large n (F(k) has about 0.69k bits): `family
# fibonacci-num --n N --no-check` peaked at 247 MB RSS in 3.7 s at
# N = 50,000 and 922 MB in 6.4 s at N = 100,000 (Python 3.11, x86-64).
# The polynomial, dense and ODE families are bound by time well below
# the cap: laguerre took 11.5 s and 619 MB at N = 750, ode-example 61 s
# and 186 MB at N = 10,000.  Library calls are not capped.
MAX_TERMS = 50_000


def _refuse_terms(n: int) -> None:
    if n > MAX_TERMS:
        raise SizeTooLarge(f"n above the limit {MAX_TERMS}, got {n}")


class _UsageError(RecdetError):
    exit_code = EXIT_USAGE


class _Parser(argparse.ArgumentParser):
    # route argparse failures through the exit-code contract (1, not 2)
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


# --- styling ---------------------------------------------------------------

def _use_color() -> bool:
    env = os.environ.get("RECDET_COLOR")
    if env == "0":
        return False
    if env == "1":
        return True
    return sys.stdout.isatty()


def _style(text: str, code: str) -> str:
    if _use_color():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


_GREEN = "32"
_RED = "31"


# --- spec resolution -------------------------------------------------------

def _resolve_spec(token: str) -> tuple[FullHistorySpec | FixedOrderSpec, str]:
    """A .rec file path, or failing that a catalog family name."""
    path = Path(token)
    if path.is_file():
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise _UsageError(
                f"{token} is not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None
        # the DSL is imported by the one route that reads a spec file, so
        # no other command pays for compiling it
        from . import dsl

        doc = dsl.parse(text)
        return dsl.to_spec(doc, name=path.stem), doc.ring
    fid = _family_id(token, f"{token!r} is neither a spec file nor a family")
    return family_spec(fid), family_ring(fid)


def _family_id(name: str, unknown: str) -> FamilyId:
    """The catalog family called name, or a usage error that says unknown
    and lists the families."""
    try:
        return FamilyId(name)
    except ValueError:
        raise _UsageError(f"{unknown}; families: {', '.join(family_names())}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _int_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected I,J")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("expected two integers I,J") from None


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list") from None
    if min(values) < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return values


def _fraction_list(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(p) for p in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "expected a comma-separated list of rationals"
        ) from None


# --- subcommands -----------------------------------------------------------

def cmd_eval(args: argparse.Namespace) -> int:
    spec, _ring = _resolve_spec(args.spec)
    _refuse_terms(args.n)
    if isinstance(spec, FullHistorySpec):
        prefix = eval_full_history(spec, args.n)
    else:
        prefix = eval_fixed_order(spec, args.n)
    for k, value in enumerate(prefix, start=1):
        print(f"{k}: {render_value(value)}")
    return EXIT_OK


def cmd_matrix(args: argparse.Namespace) -> int:
    spec, ring = _resolve_spec(args.spec)
    matrix = spec_matrix(spec, args.k)
    if args.format == "json":
        print(matrix_to_json(matrix, ring=ring))
    elif args.format == "latex":
        print(matrix_to_latex(matrix))
    else:
        print(matrix_to_text(matrix))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    spec, _ring = _resolve_spec(args.spec)
    _refuse_terms(args.max_n)
    report = verify_spec(spec, args.max_n, method=args.method, corrupt=args.corrupt)
    if args.format == "json":
        print(report.to_json())
    else:
        print(f"spec: {report.spec}")
        width = max(
            [len("direct")]
            + [max(len(c.direct), len(c.det)) for c in report.checks]
        )
        print(f"{'k':>4}  {'direct':<{width}}  {'det':<{width}}  ok")
        for c in report.checks:
            mark = _style("yes", _GREEN) if c.ok else _style("NO", _RED)
            print(f"{c.k:>4}  {c.direct:<{width}}  {c.det:<{width}}  {mark}")
        if report.passed:
            print(f"result: {_style('pass', _GREEN)} ({len(report.checks)} checks)")
        else:
            print(f"result: {_style('FAIL', _RED)} at k = {report.first_failure()}")
    return EXIT_OK if report.passed else EXIT_MISMATCH


def _family_values(fid: FamilyId, n: int, params, check: bool):
    spec = family_spec(fid, params)
    _refuse_terms(n)
    values = determinant_terms(spec, n)
    if check:
        oracles = family_oracles(fid, n, params)
        for k, (value, oracle) in enumerate(zip(values, oracles), start=1):
            if value != oracle:
                raise _FamilyMismatch(
                    fid.value, k, render_value(value), render_value(oracle)
                )
    return list(enumerate(values, start=1))


class _FamilyMismatch(RecdetError):
    exit_code = EXIT_MISMATCH

    def __init__(self, family: str, k: int, det: str, oracle: str) -> None:
        super().__init__(
            f"family {family!r}: determinant {det} != oracle {oracle} at n = {k}"
        )
        self.k = k


def cmd_family(args: argparse.Namespace) -> int:
    if args.list:
        for name in family_names():
            print(name)
        return EXIT_OK
    if args.name is None:
        raise _UsageError("a family name is required (or use --list)")
    fid = _family_id(args.name, f"unknown family {args.name!r}")
    values = _family_values(fid, args.n, args.params, check=not args.no_check)
    if args.format == "json":
        # every value is rendered before the first byte goes out, so that a
        # value past the digit limit prints nothing; then the line is
        # written in pieces, each string escaped as json.dumps escapes it,
        # the bytes of the compact json.dumps of
        # {"family": ..., "values": [{"n": k, "value": text}, ...]}
        texts = [render_value(v) for _, v in values]
        del values
        write = sys.stdout.write
        write(f'{{"family":{encode_basestring_ascii(fid.value)},"values":[')
        for k, text in enumerate(texts, start=1):
            write(f'{"," if k > 1 else ""}{{"n":{k},"value":{encode_basestring_ascii(text)}}}')
        write("]}\n")
    else:
        show = latex_value if args.format == "latex" else render_value
        for k, v in values:
            print(f"{k}: {show(v)}")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    # bit tracking is process-global: switch it off on every way out
    try:
        return _bench(args)
    finally:
        COUNTER.reset()


def _bench(args: argparse.Namespace) -> int:
    import csv
    import io
    import random
    import time

    for m in args.methods:
        if m not in DET_FUNCTIONS:
            raise _UsageError(
                f"unknown method {m!r}; methods: {', '.join(sorted(DET_FUNCTIONS))}"
            )
    rng = random.Random(args.seed)
    # draw all matrices up front so the sample depends only on seed/sizes
    matrices = [
        random_hessenberg(size, rng, ring=args.ring) for size in args.sizes
    ]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(["method", "size", "ring_ops", "ms", "max_bits"])
    ran = 0
    for size, matrix in zip(args.sizes, matrices):
        dets = {}
        for method in args.methods:
            if method == "laplace" and size > LAPLACE_SIZE_LIMIT:
                print(
                    f"laplace refused for size {size} "
                    f"(limit {LAPLACE_SIZE_LIMIT}); skipping",
                    file=sys.stderr,
                )
                continue
            # timed untracked, as users run it; max_bits from a tracked pass
            COUNTER.reset()
            start = time.perf_counter()
            dets[method] = DET_FUNCTIONS[method](matrix)
            ms = (time.perf_counter() - start) * 1000.0
            ring_ops = COUNTER.ring_ops
            COUNTER.reset(track_bits=True)
            DET_FUNCTIONS[method](matrix)
            writer.writerow([method, size, ring_ops, f"{ms:.3f}", COUNTER.max_bits])
            ran += 1
        if len(dets) > 1:
            values = set(dets.values())
            if len(values) != 1:
                print(
                    f"size {size}: determinant disagreement {dets!r}",
                    file=sys.stderr,
                )
                return EXIT_MISMATCH
            print(
                f"size {size}: det = {render_value(next(iter(values)))} "
                f"({', '.join(sorted(dets))} agree)",
                file=sys.stderr,
            )
    sys.stdout.write(out.getvalue())
    if ran == 0:
        print("no benchmark ran: every size/method pair was refused", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


# --- driver ----------------------------------------------------------------

@functools.cache
def build_parser() -> _Parser:
    # built once per process: in-process callers of main skip rebuilding it
    parser = _Parser(
        prog="recdet",
        description="Determinant representations of linearly recurrent sequences.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("eval", help="print terms 1..n of a recurrence", parents=[])
    p.add_argument("spec", help=".rec file or family name")
    p.add_argument("--n", type=_positive_int, required=True, help="last index to print")

    p = sub.add_parser("matrix", help="print the size-k determinant matrix")
    p.add_argument("spec", help=".rec file or family name")
    p.add_argument("--k", type=_positive_int, required=True, help="matrix size")
    p.add_argument(
        "--format", choices=("text", "json", "latex"), default="text"
    )

    p = sub.add_parser("verify", help="check det(size k) against direct terms")
    p.add_argument("spec", help=".rec file or family name")
    p.add_argument("--max-n", type=_positive_int, required=True)
    p.add_argument("--method", choices=tuple(DET_FUNCTIONS), default="fast")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--corrupt",
        type=_int_pair,
        default=None,
        metavar="I,J",
        help="add 1 to entry (I, J) first, as a negative control",
    )

    p = sub.add_parser("family", help="catalog families via their determinants")
    p.add_argument("name", nargs="?", help="family name")
    p.add_argument("--n", type=_positive_int, default=5, help="last index to print")
    p.add_argument(
        "--params", type=_fraction_list, default=None, help="coefficient list"
    )
    p.add_argument("--list", action="store_true", help="list family names and exit")
    p.add_argument(
        "--no-check",
        action="store_true",
        help="skip the oracle cross-check of every printed value",
    )
    p.add_argument(
        "--format", choices=("text", "json", "latex"), default="text"
    )

    p = sub.add_parser(
        "bench",
        help="op-count benchmark on random matrices",
        description="Time the determinant algorithms on seeded random "
        "upper-Hessenberg matrices.  Each method is timed with bit tracking "
        "off, on the kernels that verify runs; max_bits comes from a second, "
        "tracked pass on the ring paths, which make the same ring_ops.",
    )
    p.add_argument("--sizes", type=_int_list, required=True, metavar="N1,N2,...")
    p.add_argument(
        "--methods",
        type=lambda s: tuple(s.split(",")),
        default=("fast",),
        metavar="M1,M2,...",
    )
    p.add_argument("--ring", choices=("rational", "poly"), default="rational")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required (see recdet --help)")
        # looked up per call, not bound into the cached parser, so the
        # module's current cmd_* functions run
        commands = {
            "eval": cmd_eval,
            "matrix": cmd_matrix,
            "verify": cmd_verify,
            "family": cmd_family,
            "bench": cmd_bench,
        }
        return commands[args.command](args)
    except RecdetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
