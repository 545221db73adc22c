"""recdet benchmark: seeded jobs end to end, and a traced per-module split.

Run from the repository root, with nothing installed:

    python3 benchmarks/run.py --workload verify-rational --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (job lists come from jobs.py, generated from the seed before
any timing):

  verify-rational  `verify SPEC --max-n N --format json`, N in 48..152, SPEC
                   half the shipped rational .rec files, half generated
                   fixed-order (m = 1..4) and full-history documents
  family-poly      `family NAME --n N --format json` over the 7
                   parameter-free polynomial families, N in 10..60
  det-crosscheck   library callers: random full upper-Hessenberg matrices
                   as matrix JSON, rational sizes 25..62 and poly sizes
                   6..13 (degree 1) and 6..11 (degree 2), through
                   det_hessenberg_fast, det_bareiss and det_laplace
                   (size <= 8), which must agree

--trace 0 drives the jobs through recdet.cli.main(argv) in this process,
one at a time (a closed loop with one client), for --seconds seconds, then
on to the end of the round and to at least 200 jobs.  It reports
jobs_per_s (jobs over their summed time), job_ms_p50, job_ms_p90,
peak_rss_mb and setup_s (median time to import recdet.cli in a fresh
interpreter), and prints failed_ratio and the uncorrected wall-time
figures beside them.  Times are speed-corrected reference times; see
clock.py.

--trace 1 runs the first round of the job list untraced, then again as
chains of public recdet calls wrapped in spans (tracing.py), checks that
both print the same bytes, and reports the per-module metrics, the kernel
probes, per-module import times and the tracing overhead.

A job fails on a non-zero exit, a failed cross-check, output that the
independent checks in check.py reject, or, for seed 1, stdout whose digest
differs from the one recorded in digests.json.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.  Spans
and a result file with provenance go to benchmarks/out/.

--record-digests runs every job of the seed-1 list once and stores the
stdout digests in digests.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import check
import jobs as joblists
from clock import SpeedClock, speed_corrected

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
DIGEST_SEED = 1
MIN_JOBS = 200          # job_ms_p90 then has at least 20 samples above it
MAX_TIMED_S = 120.0     # a timed phase stops here even below MIN_JOBS
SETUP_REPS = 9
IMPORT_REPS = 5
# the metrics of the --trace 0 result line; the rest are printed only
END_TO_END = ("jobs_per_s", "job_ms_p50", "job_ms_p90", "peak_rss_mb", "setup_s")


def _python_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def setup_seconds(env: dict) -> float:
    """Median time to import recdet.cli, each in a fresh interpreter, in
    reference seconds (clock.py): the child runs the calibration kernel
    right after the import.  The first import is not counted: it may write
    the bytecode cache."""
    code = (
        "import sys, time, statistics\n"
        "t = time.perf_counter()\n"
        "import recdet.cli\n"
        "t = time.perf_counter() - t\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "from clock import kernel_seconds\n"
        "print(t, statistics.median(kernel_seconds() for _ in range(3)))\n"
    )
    samples = []
    for i in range(SETUP_REPS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        if i:
            samples.append(speed_corrected(*map(float, proc.stdout.split())))
    return statistics.median(samples)


def _freeze_heap() -> None:
    """Keep the job list out of the collector's way: a CLI call in its own
    process would not carry it, so it should not slow the jobs timed."""
    gc.collect()
    gc.freeze()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Runner:
    """Runs one job untraced and returns (exit code, stdout)."""

    def __init__(self) -> None:
        from recdet.cli import main
        from tracing import det_job

        self.cli_main = main
        self.det_job = det_job

    def __call__(self, job) -> tuple[int, str]:
        try:
            if not job.argv:
                rc, out, _ = self.det_job(job.matrix)
                return rc, out
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = self.cli_main(list(job.argv))
            return rc, out.getvalue()
        except Exception:  # a crash in the code under test is a failed job
            print(f"job {job.jid}: {traceback.format_exc(limit=-1).strip()}", file=sys.stderr)
            return -1, ""


class Checker:
    """Judges each job's output as it comes, so no output is kept."""

    def __init__(self, workload: str, recorded: list[str] | None) -> None:
        self.workload = workload
        self.recorded = recorded
        self.first: dict[int, str] = {}  # stdout digest per job id
        self.failed = 0

    def __call__(self, job, rc: int, out: str) -> bool:
        """True when the job failed; prints the first few reasons."""
        d = _digest(out)
        if rc != 0:
            reason = f"exit code {rc}"
        elif job.jid in self.first:
            reason = None if self.first[job.jid] == d else "stdout differs from an earlier run"
        else:
            reason = check.check(self.workload, job.ref, out)
            if reason is None and self.recorded is not None and self.recorded[job.jid] != d:
                reason = "stdout digest differs from digests.json"
        self.first.setdefault(job.jid, d)
        if reason is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"job {job.jid} failed: {reason}", file=sys.stderr)
        return reason is not None


def _recorded(workload: str, seed: int) -> dict | None:
    """digests.json's record of the workload (list_sha256, stdout_sha256),
    which holds for DIGEST_SEED only."""
    if seed != DIGEST_SEED or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8"))["workloads"].get(workload)


def _stdout_digests(workload: str, seed: int) -> list[str] | None:
    rec = _recorded(workload, seed)
    return rec and rec["stdout_sha256"]


def make_job_list(workload: str, seed: int):
    """The job list, with its determinism self-check: two generations must
    agree, and for the recorded seed match the recorded list digest."""
    spec_dir = (OUT / "specs" / f"{workload}-seed{seed}").relative_to(ROOT).as_posix()
    jobs = joblists.make_jobs(workload, seed, spec_dir)
    digest = joblists.list_digest(jobs)
    ok = digest == joblists.list_digest(joblists.make_jobs(workload, seed, spec_dir))
    rec = _recorded(workload, seed)
    if rec is not None and rec["list_sha256"] != digest:
        ok = False
    if not ok:
        print(f"{workload}: job list for seed {seed} is not the recorded one", file=sys.stderr)
    joblists.write_specs(jobs, ROOT)
    return jobs, digest, ok


def provenance(args, extra: dict) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **extra,
    }


def _emit(args, prov: dict, metrics: dict, samples: dict, reported, correct: bool,
          attempted: int, failed: int) -> None:
    """Write the result file, print the table, and print the result line
    with the metrics named in reported."""
    OUT.mkdir(parents=True, exist_ok=True)
    as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result = {"provenance": prov, "metrics": as_json, "samples": samples,
              "attempted": attempted, "failed": failed}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print("provenance: " + ", ".join(f"{k} {v}" for k, v in prov.items()))
    for k, (v, u) in metrics.items():
        n = samples.get(k)
        print(f"  {k:<38} {v:>14.6g} {u:<6}" + (f" (n={n})" if n is not None else ""))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: as_json[k] for k in reported},
    }))


def _latency_metrics(prefix: str, seconds: list[float]) -> dict:
    ms = sorted(x * 1000.0 for x in seconds)
    return {
        f"{prefix}jobs_per_s": (len(ms) * 1000.0 / sum(ms), "1/s"),
        f"{prefix}job_ms_p50": (statistics.median(ms), "ms"),
        f"{prefix}job_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
    }


def run_untraced(args) -> None:
    jobs, digest, list_ok = make_job_list(args.workload, args.seed)
    setup_s = setup_seconds(_python_env())
    run = Runner()
    run(jobs[0])  # warm-up, not timed
    _freeze_heap()
    clock = SpeedClock()
    checker = Checker(args.workload, _stdout_digests(args.workload, args.seed))
    wall_s, ref_s = [], []
    round_len = joblists.round_length(args.workload)
    start = perf_counter()
    deadline = start + args.seconds
    while True:
        now = perf_counter()
        n = len(ref_s)
        # stop at a round boundary, so every run times the same job mix
        if n % round_len == 0 and (
            (now >= deadline and n >= MIN_JOBS) or now - start >= MAX_TIMED_S
        ):
            break
        job = jobs[n % len(jobs)]
        (rc, out), wall, ref = clock.call(run, job)
        checker(job, rc, out)
        wall_s.append(wall)
        ref_s.append(ref)
    timed = perf_counter() - start
    failed = checker.failed
    metrics = {
        **_latency_metrics("", ref_s),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
        "failed_ratio": (failed / n, "ratio"),
        **_latency_metrics("wall.", wall_s),
    }
    samples = {k: n for k in metrics if k not in ("peak_rss_mb", "setup_s")}
    samples["setup_s"] = SETUP_REPS
    prov = provenance(args, {"jobs": n, "list_length": len(jobs), "list_sha256": digest[:16],
                             "timed_s": round(timed, 3)})
    _emit(args, prov, metrics, samples, END_TO_END, list_ok and failed == 0, n, failed)


def _traced_call(clock, tr, job) -> tuple[str | None, float]:
    """The job as a traced chain: its stdout (None if it raised), and the
    reference seconds it took."""
    import tracing

    try:
        out, wall, ref = clock.call(tracing.traced_job, tr, job)
    except Exception:
        print(f"job {job.jid}: {traceback.format_exc(limit=-1).strip()}", file=sys.stderr)
        return None, 0.0
    tr.scale[job.jid] = ref / wall
    return out, ref


def run_traced(args) -> None:
    import tracing
    from recdet import COUNTER

    jobs, digest, list_ok = make_job_list(args.workload, args.seed)
    subset = jobs[: joblists.round_length(args.workload)]
    run = Runner()
    run(jobs[0])  # warm-up, not timed
    _freeze_heap()
    clock = SpeedClock()
    tr = tracing.Tracer()
    # each job untraced, then traced right away, so both see the machine
    # in the same state and the difference is the tracing overhead
    checker = Checker(args.workload, _stdout_digests(args.workload, args.seed))
    untraced_s, traced_s, mismatched, failed = 0.0, 0.0, 0, 0
    for job in subset:
        (rc, out), _, ref = clock.call(run, job)
        untraced_s += ref
        got, ref = _traced_call(clock, tr, job)
        traced_s += ref
        bad = checker(job, rc, out)
        if got != out:
            mismatched += 1
            bad = True
            print(f"job {job.jid}: traced chain printed other bytes than cli.main", file=sys.stderr)
        failed += bad
    bits = tracing.Tracer()
    COUNTER.reset(track_bits=True)
    try:
        for job in subset:
            _traced_call(clock, bits, job)
    finally:
        COUNTER.reset()

    metrics = {
        "trace.jobs": (len(subset), "count"),
        "trace.untraced_ms": (untraced_s * 1000.0, "ms"),
        "trace.traced_ms": (traced_s * 1000.0, "ms"),
        "trace.overhead_ms": ((traced_s - untraced_s) * 1000.0, "ms"),
        "trace.overhead_ratio": (traced_s / untraced_s - 1.0, "ratio"),
        "trace.fidelity_mismatches": (mismatched, "count"),
    }
    metrics.update(tracing.layer_metrics(tr, bits))
    metrics.update(tracing.import_times(_python_env(), IMPORT_REPS))
    metrics.update(tracing.probes(clock))
    prov = provenance(args, {"jobs": len(subset), "list_length": len(jobs),
                             "list_sha256": digest[:16]})
    tracing.write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.json", tr, prov)
    _emit(args, prov, metrics, {"trace.traced_ms": len(subset)}, metrics,
          list_ok and failed == 0, len(subset), failed)


def record_digests(args) -> int:
    if args.seed != DIGEST_SEED:
        print(f"digests are kept for seed {DIGEST_SEED} only", file=sys.stderr)
        return 2
    data = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    data["seed"] = DIGEST_SEED
    workloads = data.setdefault("workloads", {})
    names = joblists.WORKLOADS if args.workload == "all" else (args.workload,)
    run = Runner()
    for name in names:
        spec_dir = (OUT / "specs" / f"{name}-seed{args.seed}").relative_to(ROOT).as_posix()
        jobs = joblists.make_jobs(name, args.seed, spec_dir)
        joblists.write_specs(jobs, ROOT)
        checker, digests = Checker(name, None), []
        for job in jobs:
            rc, out = run(job)
            checker(job, rc, out)
            digests.append(_digest(out))
        if checker.failed:
            print(f"{name}: not recorded, jobs failed", file=sys.stderr)
            return 1
        workloads[name] = {"list_sha256": joblists.list_digest(jobs), "stdout_sha256": digests}
        print(f"{name}: recorded {len(jobs)} digests for seed {args.seed}")
    DIGESTS.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table and one result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in joblists.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=joblists.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "recdet" / "cli.py").is_file():
        print(f"error: no recdet sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    os.environ["RECDET_COLOR"] = "0"
    if args.record_digests:
        return record_digests(args)
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        run_traced(args)
    else:
        run_untraced(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
