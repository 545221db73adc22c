"""Seeded job lists for the benchmark's three workloads.

A job list depends only on the workload name and the seed.  It is a
sequence of rounds, and every round holds the same mix of job shapes: each
spec kind, family or matrix ring crossed with each size stratum, once.  The
seed draws the size inside each stratum (but for family-poly), the
coefficients, the matrix entries and the order of the jobs inside a round.
A run times whole rounds, so runs with different seeds time the same mix of
work.

Every job carries a description of its input that the independent checks
in ``check.py`` use, so correctness never rests on the code under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from check import render_poly, signed_sum

WORKLOADS = ("verify-rational", "family-poly", "det-crosscheck")

# jobs per list, rounded up to whole rounds; a run that finishes the list
# starts it again
LIST_JOBS = 400

SHIPPED_SPEC_DIR = "src/recdet/specs"

# The shipped rational specs, restated independently of their .rec files.
# A coefficient is (num, den): polynomials in k, constant term first.  A
# full-history coefficient p(k, i) is (num, den), each (const, k, i).
SHIPPED = {
    "fibonacci-num": {
        "mode": "fixed-order", "initials": (1, 1), "fvk": None,
        "coeffs": (((1,), (1,)), ((1,), (1,))),
    },
    "naturals": {
        "mode": "fixed-order", "initials": (1, 2), "fvk": None,
        "coeffs": (((-1,), (1,)), ((2,), (1,))),
    },
    "continuant": {
        "mode": "fixed-order", "initials": (1, 3), "fvk": None,
        "coeffs": (((1,), (1,)), ((0, 1), (1,))),
    },
    "partial-sums": {
        "mode": "fixed-order", "initials": (1,), "fvk": None,
        "coeffs": (((1, 1), (-1, 1)),),
    },
    "ode-example": {
        "mode": "fixed-order", "initials": (1, 0, 0), "fvk": 4,
        "coeffs": (((-1,), (2, -3, 1)), ((0,), (1,)), ((2, -1), (-1, 1))),
    },
    "powers-of-two": {
        "mode": "full-history", "initial": 1,
        "coeff": ((1, 0, 0), (1, 0, 0)),
    },
}

POLY_FAMILIES = (
    "fibonacci-poly", "lucas-poly", "chebyshev-t", "chebyshev-u",
    "hermite", "legendre", "laguerre",
)


@dataclass(frozen=True)
class Job:
    """One unit of work.

    CLI jobs have ``argv``; det-crosscheck jobs have ``matrix`` (matrix
    JSON text).  ``spec_path``/``spec_text`` name a generated .rec file
    that must exist before the job runs.  ``ref`` is what check.py needs.
    """

    jid: int
    argv: tuple[str, ...] = ()
    matrix: str = ""
    spec_path: str = ""
    spec_text: str = ""
    ref: object = None


# --- verify-rational -------------------------------------------------------

def _k_poly(cs: tuple[int, ...]) -> str:
    """DSL text of sum cs[d] * k^d (degree at most 2)."""
    return signed_sum((cs[d], ("", "k", "k*k")[d]) for d in range(len(cs) - 1, -1, -1))


def _lin(cs: tuple[int, int, int]) -> str:
    """DSL text of c0 + ck*k + ci*i."""
    return signed_sum(((cs[2], "i"), (cs[1], "k"), (cs[0], "")))


def _ratio(num: str, den: str) -> str:
    return num if den == "1" else f"({num})/({den})"


def spec_document(desc: dict) -> str:
    """The .rec text of a spec description."""
    if desc["mode"] == "full-history":
        num, den = desc["coeff"]
        return (
            "mode = full-history\nring = rational\n"
            f"initial = {desc['initial']}\n"
            f"coeff p(k, i) = {_ratio(_lin(num), _lin(den))}\n"
        )
    lines = [
        "mode = fixed-order",
        "ring = rational",
        f"order = {len(desc['initials'])}",
        "initial = [" + ", ".join(str(v) for v in desc["initials"]) + "]",
    ]
    if desc["fvk"] is not None:
        lines.append(f"first_valid_k = {desc['fvk']}")
    for j, (num, den) in enumerate(desc["coeffs"], start=1):
        lines.append(f"coeff p{j}(k) = {_ratio(_k_poly(num), _k_poly(den))}")
    return "\n".join(lines) + "\n"


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([v for v in range(-bound, bound + 1) if v])


# which coefficients of a generated fixed-order spec are (a*k + b)/(k + c)
# rather than constants; fixed per order, since it sets the cost of a job
_FRACTIONAL = {1: (True,), 2: (False, True), 3: (True, False, False), 4: (False, True, False, True)}


def _sign(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def _fixed_order_desc(rng: random.Random, order: int) -> dict:
    coeffs = []
    for j, fractional in enumerate(_FRACTIONAL[order]):
        if fractional:
            # c >= 1, so no k >= 1 zeroes the denominator
            num = (rng.choice((-2, -1, 1, 2)), _sign(rng))
            coeffs.append((num, (rng.randint(1, 3), 1)))
        else:
            coeffs.append(((_sign(rng) * (1 + j % 2),), (1,)))
    return {
        "mode": "fixed-order",
        "initials": tuple(_nonzero(rng, 2) for _ in range(order)),
        "fvk": None,
        "coeffs": tuple(coeffs),
    }


def _full_history_desc(rng: random.Random, fractional: bool) -> dict:
    # p(k, i) = a*i + b, or (a*i + b)/(k + c) with c >= 1
    num = (rng.choice((-2, -1, 1, 2)), 0, _sign(rng))
    den = (rng.randint(1, 3), 1, 0) if fractional else (1, 0, 0)
    return {"mode": "full-history", "initial": _nonzero(rng, 2), "coeff": (num, den)}


# 12 spec kinds: the six shipped specs, fixed-order of order 1..4, and
# full-history with integer and with fractional coefficients; each runs at
# every max-n stratum, 20 apart, in a round
_VERIFY_SLOTS = (
    tuple(("shipped", name) for name in SHIPPED)
    + tuple(("fixed", m) for m in (1, 2, 3, 4))
    + (("full", False), ("full", True))
)
_VERIFY_NS = (50, 70, 90, 110, 130, 150)


def _verify_round(rng: random.Random) -> list:
    round_jobs = []
    for kind, arg in _VERIFY_SLOTS:
        for center in _VERIFY_NS:
            n = center + rng.randint(-2, 2)
            if kind == "shipped":
                desc, text, name = SHIPPED[arg], "", arg
            else:
                desc = (
                    _fixed_order_desc(rng, arg)
                    if kind == "fixed"
                    else _full_history_desc(rng, arg)
                )
                text, name = spec_document(desc), None  # named once the job id is known
            round_jobs.append((name, desc, text, n))
    rng.shuffle(round_jobs)
    return round_jobs


def _verify_jobs(rng: random.Random, spec_dir: str) -> list[Job]:
    jobs: list[Job] = []
    while len(jobs) < LIST_JOBS:
        for name, desc, text, n in _verify_round(rng):
            jid = len(jobs)
            if name is None:
                name = f"gen-{jid:04d}"
                path = f"{spec_dir}/{name}.rec"
            else:
                path = f"{SHIPPED_SPEC_DIR}/{name}.rec"
            jobs.append(
                Job(
                    jid=jid,
                    argv=("verify", path, "--max-n", str(n), "--format", "json"),
                    spec_path=path if text else "",
                    spec_text=text,
                    ref={"name": name, "desc": desc, "n": n},
                )
            )
    return jobs


# --- family-poly -----------------------------------------------------------

# every family at every n in a round; the n are log-spaced over 10..60, so
# each costs a similar share of the run instead of the largest n taking it
# all.  The seed sets only the order: the seven families are slow to
# different degrees, and a seeded n would move the median job between them.
_FAMILY_NS = tuple(round(10 * 6 ** (j / 6)) for j in range(7))


def _family_jobs(rng: random.Random) -> list[Job]:
    jobs: list[Job] = []
    while len(jobs) < LIST_JOBS:
        round_jobs = [(name, n) for name in POLY_FAMILIES for n in _FAMILY_NS]
        rng.shuffle(round_jobs)
        for name, n in round_jobs:
            jobs.append(
                Job(
                    jid=len(jobs),
                    argv=("family", name, "--n", str(n), "--format", "json"),
                    ref={"family": name, "n": n},
                )
            )
    return jobs


# --- det-crosscheck --------------------------------------------------------

# a round: eight rational sizes 5 apart over 25..62, and poly matrices of
# sizes 6..13 with entries of degree 1 and of sizes 6..11 with entries of
# degree 2.  Degree 2 stops at 11 because sizes 12 and 13 would cost two
# to three times any other job and alone make up the top tenth, which
# would leave job_ms_p90 to fall in the gap between them and the rest.
_RATIONAL_SIZES = tuple(26 + 5 * j for j in range(8))
_POLY_SHAPES = tuple((size, 1) for size in range(6, 14)) + tuple((size, 2) for size in range(6, 12))


def _hessenberg(rng: random.Random, size: int, degree: int) -> list[list]:
    """A full upper-Hessenberg matrix: every entry on or above the
    subdiagonal is nonzero.  Rational entries are ints; poly entries are
    integer coefficient lists of exactly the given degree."""
    rows = []
    for r in range(size):
        row = []
        for c in range(size):
            if r > c + 1:
                row.append(0 if degree == 0 else [])
            elif degree == 0:
                row.append(_nonzero(rng, 9))
            else:
                row.append(
                    [rng.randint(-3, 3) for _ in range(degree)] + [_nonzero(rng, 3)]
                )
        rows.append(row)
    return rows


def _det_jobs(rng: random.Random) -> list[Job]:
    jobs: list[Job] = []
    while len(jobs) < LIST_JOBS:
        round_jobs = [("rational", size + rng.randint(-1, 1), 0) for size in _RATIONAL_SIZES]
        round_jobs += [("poly", size, degree) for size, degree in _POLY_SHAPES]
        rng.shuffle(round_jobs)
        for ring, size, degree in round_jobs:
            rows = _hessenberg(rng, size, degree)
            cells = [
                [str(v) if ring == "rational" else render_poly(v) for v in row]
                for row in rows
            ]
            text = json.dumps(
                {"size": size, "ring": ring, "entries": cells}, separators=(",", ":")
            )
            jobs.append(
                Job(
                    jid=len(jobs),
                    matrix=text,
                    ref={"ring": ring, "rows": rows, "point": rng.randrange(2, 2**61 - 1)},
                )
            )
    return jobs


# --- entry points ----------------------------------------------------------

def round_length(workload: str) -> int:
    return {
        "verify-rational": len(_VERIFY_SLOTS) * len(_VERIFY_NS),
        "family-poly": len(POLY_FAMILIES) * len(_FAMILY_NS),
        "det-crosscheck": len(_RATIONAL_SIZES) + len(_POLY_SHAPES),
    }[workload]


def make_jobs(workload: str, seed: int, spec_dir: str) -> list[Job]:
    """The job list of a workload for a seed.  spec_dir is where the
    generated .rec files go, relative to the repository root."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-rational":
        return _verify_jobs(rng, spec_dir)
    if workload == "family-poly":
        return _family_jobs(rng)
    if workload == "det-crosscheck":
        return _det_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def list_digest(jobs: list[Job]) -> str:
    """SHA-256 over every job's argv, generated spec text and matrix."""
    h = hashlib.sha256()
    for job in jobs:
        h.update(json.dumps([job.argv, job.spec_text, job.matrix]).encode())
    return h.hexdigest()


def write_specs(jobs: list[Job], root: Path) -> None:
    for job in jobs:
        if job.spec_text:
            path = root / job.spec_path
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(job.spec_text, encoding="utf-8")
