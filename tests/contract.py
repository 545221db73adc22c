"""The CLI contract battery: a fixed argv list and one golden file.

Each invocation runs through cli.main in process and is recorded as the
sha256 of its stdout and stderr, its exit code, and the adds, muls and
divs ring.COUNTER counted, plus, for bench, the max_bits column of its
CSV.  bench's ms column is dropped before its stdout is hashed.  Paths of
the shipped specs are written as {specs}/NAME.rec, in the argv keys and in
the output, so that the golden file does not depend on the checkout.  The
battery's own spec files, seeded random documents and malformed inputs,
are written to a temporary directory for each pass and named
{docs}/NAME.rec in the same way.

    python tests/contract.py --record   # write contract.json
    python tests/contract.py            # check against it

Record only on a tree whose contract is known good, and list in
CHANGES.md every key a change alters, and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().with_name("contract.json")

for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from recdet import cli, dsl  # noqa: E402
from recdet.families import PARAM_FAMILIES, POLY_FAMILIES, family_names  # noqa: E402
from recdet.ring import COUNTER  # noqa: E402
from recdet.specfiles import available, spec_path  # noqa: E402
from tests.conftest import random_document  # noqa: E402

SPECS = "{specs}"
SPECS_DIR = str(spec_path(available()[0]).parent)
DOCS = "{docs}"
# conftest.random_document seeds, two of each mode and ring: full-history
# poly (0, 5), fixed-order rational (1, 2), fixed-order poly (4, 6) and
# full-history rational (7, 23)
DOCUMENT_SEEDS = (0, 1, 2, 4, 5, 6, 7, 23)
# spec files the lexer, the parser or the decoder refuses (exit 1), CI's
# literal of 5,000 digits included: the DSL refuses it past its own
# digit limit on every Python, as it does CI's long and deep expressions
# past its token limit
_HEAD = "mode = fixed-order\nring = rational\norder = 1\ninitial = [1]\n"
MALFORMED = {
    "latin1": b"mode = fixed-order\n# caf\xe9\n",
    "superscript": (_HEAD + "coeff p1(k) = 2\u00b2\n").encode(),
    "vtab": (_HEAD + "coeff p1(k) = k +\v1\n").encode(),
    "nbsp": (_HEAD + "coeff p1(k) = k +\u00a01\n").encode(),
    "long": (_HEAD + "coeff p1(k) = " + "9" * 5000 + "\n").encode(),
    "long-sum": (_HEAD + "coeff p1(k) = " + " + ".join(["k"] * 1000) + "\n").encode(),
    "deep-parens": (_HEAD + "coeff p1(k) = " + "(" * 400 + "k" + ")" * 400 + "\n").encode(),
}
SIZES = ("1", "2", "9", "30")
FAMILY_SIZES = ("1", "9", "30")
# the seven three-term polynomial families also run at a larger n
THREE_TERM_POLY = frozenset(f.value for f in POLY_FAMILIES - PARAM_FAMILIES)
# no ANSI styling, whatever the environment says; restored afterwards
_PLAIN = mock.patch.dict(os.environ, RECDET_COLOR="0")


def argvs() -> list[list[str]]:
    """The fixed argv list, with shipped spec paths as {specs}/NAME.rec."""
    specs = [f"{SPECS}/{name}.rec" for name in available()]
    specs += [f"{SPECS}/negative/{name}.rec" for name in available(negative=True)]
    out: list[list[str]] = []
    for spec in specs:
        for n in SIZES:
            out.append(["eval", spec, "--n", n])
            for fmt in ("text", "json", "latex"):
                out.append(["matrix", spec, "--k", n, "--format", fmt])
            for method in ("fast", "bareiss", "laplace"):
                for fmt in ("text", "json"):
                    out.append(["verify", spec, "--max-n", n, "--method", method, "--format", fmt])
        # a cell in the band, a(1) or p(1, 1), and one above it
        for cell in ("1,1", "2,5"):
            out.append(["verify", spec, "--max-n", "9", "--corrupt", cell, "--format", "json"])
    for name in family_names():
        params = [[], ["--params", "1,-2,1/3,5,0,7,-1,2,3"]] if name in PARAM_FAMILIES else [[]]
        # a family name as SPEC: the catalog spec, whose Theorem 1 matrix
        # holds Fraction cells beside Polynomial ones in the poly families
        out.append(["eval", name, "--n", "30"])
        for method in ("fast", "bareiss"):
            out.append(["verify", name, "--max-n", "30", "--method", method, "--format", "json"])
        out.append(["verify", name, "--max-n", "9", "--corrupt", "1,1", "--format", "json"])
        for n in FAMILY_SIZES + (("150",) if name in THREE_TERM_POLY else ()):
            for fmt in ("text", "json", "latex"):
                for check in ([], ["--no-check"]):
                    for p in params:
                        out.append(["family", name, "--n", n, "--format", fmt, *check, *p])
    for ring in ("poly", "rational"):
        for seed in ("0", "42"):
            out.append([
                "bench", "--ring", ring, "--sizes", "1,2,3,4,5,6,7,8,40",
                "--methods", "fast,bareiss,laplace", "--seed", seed,
            ])
    for seed in DOCUMENT_SEEDS:
        doc = f"{DOCS}/random-{seed}.rec"
        out.append(["eval", doc, "--n", "30"])
        for method in ("fast", "bareiss"):
            out.append(["verify", doc, "--max-n", "30", "--method", method, "--format", "json"])
        out.append(["verify", doc, "--max-n", "9", "--corrupt", "1,1", "--format", "json"])
    # the malformed inputs of CI's malformed_input step
    for name in MALFORMED:
        out.append(["eval", f"{DOCS}/{name}.rec", "--n", "3"])
    past = str(cli.MAX_TERMS + 1)
    out += [
        ["eval", f"{SPECS}/negative/bad-eval.rec", "--n", "12"],
        ["bench", "--sizes", "2001"],
        ["matrix", "fibonacci-num", "--k", "2001"],
        ["bench", "--sizes", "0"],
        ["family", "fibonacci-num", "--n", past],
        ["eval", "naturals", "--n", past],
    ]
    return out


@contextlib.contextmanager
def _documents():
    """A temporary directory holding the battery's own spec files,
    removed on exit; yields its path."""
    with tempfile.TemporaryDirectory() as tmp:
        for seed in DOCUMENT_SEEDS:
            text = dsl.render(random_document(random.Random(seed)))
            Path(tmp, f"random-{seed}.rec").write_text(text, encoding="utf-8")
        for name, data in MALFORMED.items():
            Path(tmp, f"{name}.rec").write_bytes(data)
        yield tmp


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _drop_ms(csv_text: str) -> tuple[str, list[int]]:
    """bench's CSV without its ms column, and its max_bits column."""
    rows = [line.split(",") for line in csv_text.split("\r\n") if line]
    if not rows or rows[0] != ["method", "size", "ring_ops", "ms", "max_bits"]:
        return csv_text, []
    kept = "".join(",".join(r[:3] + r[4:]) + "\r\n" for r in rows)
    return kept, [int(r[4]) for r in rows[1:]]


def run(argv: list[str], docs: str) -> tuple[dict, str, str]:
    """One invocation's record, and its stdout and stderr as hashed, with
    the battery's spec files in the directory docs."""
    real = [a.replace(SPECS, SPECS_DIR).replace(DOCS, docs) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    COUNTER.reset()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(real)
    stdout = out.getvalue().replace(SPECS_DIR, SPECS).replace(docs, DOCS)
    stderr = err.getvalue().replace(SPECS_DIR, SPECS).replace(docs, DOCS)
    record = {
        "code": code,
        "adds": COUNTER.adds,
        "muls": COUNTER.muls,
        "divs": COUNTER.divs,
    }
    if argv[0] == "bench":
        stdout, bits = _drop_ms(stdout)
        record["max_bits"] = bits
    record["out"] = _sha(stdout)
    record["err"] = _sha(stderr)
    COUNTER.reset()
    return record, stdout, stderr


def records() -> dict[str, dict]:
    with _PLAIN, _documents() as docs:
        return {" ".join(argv): run(argv, docs)[0] for argv in argvs()}


def first_mismatch(golden: dict[str, dict]) -> str | None:
    """A report of the first invocation whose record differs from the
    golden one, in argv order, or of a key only one side has; None when
    every record matches."""
    keys = []
    with _PLAIN, _documents() as docs:
        for argv in argvs():
            key = " ".join(argv)
            keys.append(key)
            if key not in golden:
                return f"recdet {key}: no golden record"
            got, stdout, stderr = run(argv, docs)
            if got != golden[key]:
                return (
                    f"recdet {key}\n  golden: {golden[key]}\n  got:    {got}\n"
                    f"--- stdout ---\n{stdout[:2000]}--- stderr ---\n{stderr[:2000]}"
                )
    extra = sorted(set(golden) - set(keys))
    return f"golden records with no invocation: {extra[:5]}" if extra else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="write the golden file")
    args = parser.parse_args()
    if args.record:
        lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in records().items()]
        GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"recorded {len(lines)} invocations in {GOLDEN.name}")
        return 0
    report = first_mismatch(json.loads(GOLDEN.read_text(encoding="utf-8")))
    print(report or "every invocation matches its golden record")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
