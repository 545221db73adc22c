"""The traced run: the benchmark's jobs as chains of public recdet calls.

Each chain renders the same stdout bytes as the untraced job, but wraps
every stage in a span.  A span records its name, start, end, parent and
job id, and the ring operations ``recdet.COUNTER`` counted while it was
open.  The spec's coefficient callables are wrapped too, so DSL time and
calls are charged to the span that made them.  Spans stay in memory and
are written out when the run ends.

The module also holds the kernel probes (polynomial multiply and divide,
the leading-minor recurrence) and the per-module import times.
"""

from __future__ import annotations

import dataclasses
import json
import random
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

from recdet import (
    COUNTER,
    LAPLACE_SIZE_LIMIT,
    FamilyId,
    FullHistorySpec,
    Polynomial,
    VerificationCheck,
    VerificationReport,
    det_bareiss,
    det_hessenberg_fast,
    det_laplace,
    embed_fixed_order,
    eval_fixed_order,
    eval_full_history,
    family_oracle,
    family_spec,
    hessenberg_leading_minors,
    matrix_from_json,
    random_hessenberg,
    render_value,
    theorem1_matrix,
)
from recdet import dsl
from recdet.cli import build_parser

from check import poly_terms

STAGES = (
    "dsl.parse", "recurrence.build", "recurrence.direct", "hessenberg.parse",
    "hessenberg.minors", "hessenberg.bareiss", "hessenberg.laplace",
    "families.oracle", "ring.render",
)


class Tracer:
    """In-memory spans with ring-op counts; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.job: int | None = None
        # reference seconds per wall second, per job (see clock.py)
        self.scale: dict[int, float] = {}
        # upper-triangle entries of the matrices built and fed to minors
        self.tally = {"build_entries": 0, "build_nonzero": 0,
                      "minors_entries": 0, "minors_nonzero": 0}

    @contextmanager
    def span(self, name: str):
        c = COUNTER
        rec = {"id": len(self.spans), "name": name, "job": self.job,
               "parent": self.stack[-1]["id"] if self.stack else None,
               "calls": 0, "coeff_calls": 0, "coeff_s": 0.0, "coeff_ops": 0}
        self.spans.append(rec)
        outer_bits, c.max_bits = c.max_bits, 0
        adds, muls, divs = c.adds, c.muls, c.divs
        self.stack.append(rec)
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self.stack.pop()
            rec["adds"], rec["muls"], rec["divs"] = c.adds - adds, c.muls - muls, c.divs - divs
            rec["max_bits"] = c.max_bits
            c.max_bits = max(outer_bits, c.max_bits)

    def counted(self, fn):
        """Wrap a coefficient callable so the open span is charged for it."""
        c = COUNTER

        def call(*args):
            rec = self.stack[-1]
            ops = c.adds + c.muls + c.divs
            t = perf_counter()
            try:
                return fn(*args)
            finally:
                rec["coeff_s"] += perf_counter() - t
                rec["coeff_calls"] += 1
                rec["coeff_ops"] += c.adds + c.muls + c.divs - ops

        return call

    def count_matrix(self, m, built: bool) -> None:
        n = m.size
        nonzero = sum(1 for r in range(n) for c in range(r, n) if m.entries[r][c] != 0)
        entries = n * (n + 1) // 2
        if built:
            self.tally["build_entries"] += entries
            self.tally["build_nonzero"] += nonzero
        self.tally["minors_entries"] += entries
        self.tally["minors_nonzero"] += nonzero

    def self_times(self) -> list[dict]:
        """Each span with ms, self_ms, coeff_ms and self_ops, the times in
        reference ms.  Self time and ops are the span's own, less those of
        its child spans and coefficient calls."""
        child_s = [0.0] * len(self.spans)
        child_ops = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
                child_ops[s["parent"]] += s["adds"] + s["muls"] + s["divs"]
        out = []
        for s in self.spans:
            ops = s["adds"] + s["muls"] + s["divs"]
            k = self.scale.get(s["job"], 1.0) * 1000.0
            out.append(dict(
                s,
                ms=(s["end"] - s["start"]) * k,
                self_ms=(s["end"] - s["start"] - child_s[s["id"]] - s["coeff_s"]) * k,
                coeff_ms=s["coeff_s"] * k,
                self_ops=ops - child_ops[s["id"]] - s["coeff_ops"],
            ))
        return out


# --- the job chains --------------------------------------------------------

def _no_span(name: str):
    return nullcontext()


def det_job(text: str, span=_no_span):
    """A det-crosscheck job: parse the matrix JSON, take the determinant
    by the fast route and by Bareiss (and Laplace up to its size guard),
    and print it.  Returns the exit code (3 when the algorithms
    disagree), the stdout and the matrix."""
    with span("hessenberg.parse"):
        m = matrix_from_json(text)
    with span("hessenberg.minors"):
        fast = det_hessenberg_fast(m)
    with span("hessenberg.bareiss"):
        agree = det_bareiss(m) == fast
    if m.size <= LAPLACE_SIZE_LIMIT:
        with span("hessenberg.laplace"):
            agree = det_laplace(m) == fast and agree
    with span("ring.render"):
        out = render_value(fast) + "\n"
    return (0 if agree else 3), out, m


def _counted_spec(tr: Tracer, spec):
    if isinstance(spec, FullHistorySpec):
        return dataclasses.replace(spec, coeff=tr.counted(spec.coeff))
    return dataclasses.replace(spec, coeffs=tuple(tr.counted(f) for f in spec.coeffs))


def _verify_chain(tr: Tracer, argv: list[str]):
    """`verify SPEC --max-n N --format json` for a .rec file SPEC."""
    args = build_parser().parse_args(argv)
    path = Path(args.spec)
    with tr.span("dsl.parse"):
        spec = dsl.to_spec(dsl.parse(path.read_text(encoding="utf-8")), name=path.stem)
    spec = _counted_spec(tr, spec)
    n = args.max_n
    full = isinstance(spec, FullHistorySpec)
    with tr.span("recurrence.build"):
        big = theorem1_matrix(spec if full else embed_fixed_order(spec), n)
    with tr.span("hessenberg.minors"):
        minors = hessenberg_leading_minors(big)
    with tr.span("recurrence.direct"):
        if full:
            direct = eval_full_history(spec, n + 1).terms[1:]
        else:
            direct = eval_fixed_order(spec, n).terms
    dets = [spec.initial * d for d in minors] if full else minors
    with tr.span("ring.render"):
        checks = tuple(
            VerificationCheck(k=k, direct=render_value(a), det=render_value(d), ok=a == d)
            for k, (a, d) in enumerate(zip(direct, dets), start=1)
        )
    report = VerificationReport(spec=spec.name, checks=checks, passed=all(c.ok for c in checks))
    return report.to_json() + "\n", big


def _family_chain(tr: Tracer, argv: list[str]):
    """`family NAME --n N --format json` with the oracle check on."""
    args = build_parser().parse_args(argv)
    fid = FamilyId(args.name)
    spec = family_spec(fid, args.params)
    full = isinstance(spec, FullHistorySpec)
    with tr.span("recurrence.build"):
        big = theorem1_matrix(spec if full else embed_fixed_order(spec), args.n)
    with tr.span("hessenberg.minors"):
        minors = hessenberg_leading_minors(big)
    values = [spec.initial * d for d in minors] if full else minors
    with tr.span("families.oracle") as rec:
        for k, v in enumerate(values, start=1):
            rec["calls"] += 1
            if family_oracle(fid, k, args.params) != v:
                return "", big  # the CLI prints its error on stderr only
    with tr.span("ring.render"):
        payload = {
            "family": fid.value,
            "values": [{"n": k, "value": render_value(v)} for k, v in enumerate(values, start=1)],
        }
    return json.dumps(payload, separators=(",", ":")) + "\n", big


def traced_job(tr: Tracer, job) -> str:
    """Run one job as a traced chain; returns its stdout."""
    tr.job = job.jid
    with tr.span("job"):
        if not job.argv:
            _, out, matrix = det_job(job.matrix, tr.span)
        elif job.argv[0] == "verify":
            out, matrix = _verify_chain(tr, list(job.argv))
        else:
            out, matrix = _family_chain(tr, list(job.argv))
    tr.count_matrix(matrix, built=bool(job.argv))
    return out


def layer_metrics(tr: Tracer, bits_tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-module metrics over a traced pass.  bits_tr is a second pass
    over the same jobs with bit tracking on, which only max_bits needs."""
    spans = tr.self_times()
    by = {name: [s for s in spans if s["name"] == name] for name in STAGES + ("job",)}

    def ms(name):
        return sum(s["self_ms"] for s in by[name])

    def ops(name):
        return sum(s["self_ops"] for s in by[name])

    def ratio(num, den):
        return tr.tally[num] / tr.tally[den] if tr.tally[den] else 0.0

    jobs = by["job"]
    m = {
        "cli.self_ms": (ms("job"), "ms"),
        "dsl.parse_ms": (ms("dsl.parse"), "ms"),
        "dsl.coeff_calls": (sum(s["coeff_calls"] for s in spans), "count"),
        "dsl.coeff_ms": (sum(s["coeff_ms"] for s in spans), "ms"),
        "dsl.coeff_ops": (sum(s["coeff_ops"] for s in spans), "count"),
        "recurrence.build_ms": (ms("recurrence.build"), "ms"),
        "recurrence.build_entries": (tr.tally["build_entries"], "count"),
        "recurrence.build_nonzero_ratio": (ratio("build_nonzero", "build_entries"), "ratio"),
        "recurrence.direct_ms": (ms("recurrence.direct"), "ms"),
        "recurrence.direct_ops": (ops("recurrence.direct"), "count"),
        "hessenberg.minors_ms": (ms("hessenberg.minors"), "ms"),
        "hessenberg.minors_ops": (ops("hessenberg.minors"), "count"),
        "hessenberg.minors_nonzero_ratio": (ratio("minors_nonzero", "minors_entries"), "ratio"),
        "hessenberg.bareiss_ms": (ms("hessenberg.bareiss"), "ms"),
        "hessenberg.bareiss_ops": (ops("hessenberg.bareiss"), "count"),
        "hessenberg.laplace_ms": (ms("hessenberg.laplace"), "ms"),
        "hessenberg.parse_ms": (ms("hessenberg.parse"), "ms"),
        "families.oracle_ms": (ms("families.oracle"), "ms"),
        "families.oracle_calls": (sum(s["calls"] for s in by["families.oracle"]), "count"),
        "ring.render_ms": (ms("ring.render"), "ms"),
        "ring.muls": (sum(s["muls"] for s in jobs), "count"),
        "ring.adds": (sum(s["adds"] for s in jobs), "count"),
        "ring.divs": (sum(s["divs"] for s in jobs), "count"),
        "ring.max_bits": (max((s["max_bits"] for s in bits_tr.spans), default=0), "bits"),
    }
    return m


# --- kernel probes ---------------------------------------------------------

def _timed(clock, fn, reps: int) -> tuple[float, int]:
    """Median reference ms of reps calls, and the ring ops per call."""
    times = []
    for _ in range(reps):
        before = COUNTER.adds + COUNTER.muls + COUNTER.divs
        times.append(clock.call(fn)[2] * 1000.0)
        ops = COUNTER.adds + COUNTER.muls + COUNTER.divs - before
    return statistics.median(times), ops


def _max_bits(value) -> int:
    """Largest numerator or denominator bit length of a value, read from
    its canonical rendering."""
    return max(
        int(part).bit_length()
        for _, coeff, _ in poly_terms(render_value(value))
        for part in coeff.split("/")
    )


def probes(clock) -> dict[str, tuple[float, str]]:
    """Fixed-input kernel timings, each next to a deterministic count."""
    rng = random.Random(20090707)

    def poly(d):
        return Polynomial([rng.choice([v for v in range(-9, 10) if v]) for _ in range(d + 1)])

    m: dict[str, tuple[float, str]] = {}
    for d, reps in ((25, 21), (100, 7), (400, 3)):
        a, b = poly(d), poly(d)
        m[f"ring.poly_mul_ms.d{d}"] = (_timed(clock, lambda: a * b, reps)[0], "ms")
        m[f"ring.poly_mul_max_bits.d{d}"] = (_max_bits(a * b), "bits")
    a, b = poly(50), poly(50)
    c = a * b
    if c.divmod(b) != (a, Polynomial.zero()):
        raise RuntimeError("probe: (a*b) / b != a")
    m["ring.poly_div_ms.d50"] = (_timed(clock, lambda: c.divmod(b), 9)[0], "ms")
    m["ring.poly_div_max_bits.d50"] = (_max_bits(c), "bits")
    for ring, n, reps in (("rational", 64, 9), ("rational", 128, 5), ("rational", 256, 3), ("poly", 64, 1)):
        mat = random_hessenberg(n, random.Random(n), ring=ring)
        ms, ops = _timed(clock, lambda: hessenberg_leading_minors(mat), reps)
        m[f"hessenberg.minors_ms.{ring}.n{n}"] = (ms, "ms")
        m[f"hessenberg.minors_ops.{ring}.n{n}"] = (ops, "count")
    return m


# --- import times ----------------------------------------------------------

IMPORT_MODULES = ("cli", "dsl", "hessenberg", "recurrence", "families", "ring")


def import_times(python_env: dict, reps: int) -> dict[str, tuple[float, str]]:
    """Median self time of each recdet module under -X importtime, each
    import in a fresh interpreter."""
    samples: dict[str, list[float]] = {mod: [] for mod in IMPORT_MODULES}
    for i in range(reps + 1):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import recdet.cli"],
            env=python_env, capture_output=True, text=True, timeout=60, check=True,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2].startswith("recdet.") and parts[0].isdigit():
                seen[parts[2].removeprefix("recdet.")] = int(parts[0]) / 1000.0
        if i == 0:
            continue  # the first import may compile bytecode
        for mod in IMPORT_MODULES:
            samples[mod].append(seen.get(mod, 0.0))
    return {f"{mod}.import_ms": (statistics.median(v), "ms") for mod, v in samples.items()}


def write_spans(path: Path, tr: Tracer, meta: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    spans = [
        {k: s[k] for k in ("id", "name", "job", "parent", "start", "end", "ms", "self_ms",
                           "adds", "muls", "divs", "self_ops", "calls", "coeff_calls")}
        for s in tr.self_times()
    ]
    path.write_text(json.dumps({"meta": meta, "spans": spans}, indent=None) + "\n", encoding="utf-8")
