"""The CLI contract battery: a fixed argv list and one golden file.

Each invocation runs through cli.main in process and is recorded as the
sha256 of its stdout and stderr, its exit code, and the adds, muls and
divs ring.COUNTER counted, plus, for bench, the max_bits column of its
CSV.  bench's ms column is dropped before its stdout is hashed.  Paths of
the shipped specs are written as {specs}/NAME.rec, in the argv keys and in
the output, so that the golden file does not depend on the checkout.

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
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().with_name("contract.json")

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from recdet import cli  # noqa: E402
from recdet.families import PARAM_FAMILIES, family_names  # noqa: E402
from recdet.ring import COUNTER  # noqa: E402
from recdet.specfiles import available, spec_path  # noqa: E402

SPECS = "{specs}"
SPECS_DIR = str(spec_path(available()[0]).parent)
SIZES = ("1", "2", "9", "30")
FAMILY_SIZES = ("1", "9", "30")
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
        for n in FAMILY_SIZES:
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
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _drop_ms(csv_text: str) -> tuple[str, list[int]]:
    """bench's CSV without its ms column, and its max_bits column."""
    rows = [line.split(",") for line in csv_text.split("\r\n") if line]
    if not rows or rows[0] != ["method", "size", "ring_ops", "ms", "max_bits"]:
        return csv_text, []
    kept = "".join(",".join(r[:3] + r[4:]) + "\r\n" for r in rows)
    return kept, [int(r[4]) for r in rows[1:]]


def run(argv: list[str]) -> tuple[dict, str, str]:
    """One invocation's record, and its stdout and stderr as hashed."""
    real = [a.replace(SPECS, SPECS_DIR) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    COUNTER.reset()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(real)
    stdout = out.getvalue().replace(SPECS_DIR, SPECS)
    stderr = err.getvalue().replace(SPECS_DIR, SPECS)
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
    with _PLAIN:
        return {" ".join(argv): run(argv)[0] for argv in argvs()}


def first_mismatch(golden: dict[str, dict]) -> str | None:
    """A report of the first invocation whose record differs from the
    golden one, in argv order, or of a key only one side has; None when
    every record matches."""
    keys = []
    with _PLAIN:
        for argv in argvs():
            key = " ".join(argv)
            keys.append(key)
            if key not in golden:
                return f"recdet {key}: no golden record"
            got, stdout, stderr = run(argv)
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
