"""semfourier benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload snapshots_3d --seed 1 --seconds 48 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it records spans around the package's public functions and
reports the per-layer metrics instead. Every line but the last is for
people; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Scratch files, session
directories and span dumps go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("snapshots_3d", "highq_1d", "cli_pipeline")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is repeated at least this many times, and until this many seconds
# have gone into it, so that its median is steady even when one set-up
# takes milliseconds.
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 1.0, 1000
# The tail percentile is the highest with at least this many jobs beyond it.
TAIL_BEYOND = 10


def cap_threads():
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        cap = min(nproc, int(current)) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)
    return nproc


def git_rev():
    """Commit of the checkout from ``.git`` itself, or ``unknown``."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the package sources, identifying the code measured."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def tail(times):
    """(value, percentile, jobs beyond) of the highest percentile of job
    time with TAIL_BEYOND jobs beyond it; the fastest job when fewer ran."""
    ordered = sorted(times)
    idx = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - 1 - idx


class Tally:
    """Attempted and failed jobs, with the first few failure messages."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors = []

    def run(self, workload, job, i):
        """Time one job, check it outside the timed region; returns seconds."""
        self.attempted += 1
        dt = None
        t0 = perf_counter()
        try:
            out = job(i)
            dt = perf_counter() - t0
            msg = workload.check(i, out)
        except Exception as exc:  # a failed job is counted, not fatal
            msg = f"{type(exc).__name__}: {exc}"
        if dt is None:
            dt = perf_counter() - t0
        if msg is not None:
            self.fail(f"job {i}: {msg}")
        return dt

    def fail(self, msg):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(msg)


def measure_setup(workload):
    times = []
    while (len(times) < SETUP_MIN_REPS
           or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS)):
        t0 = perf_counter()
        workload.setup()
        times.append(perf_counter() - t0)
    return statistics.median(times), len(times)


def run_plain(workload, seconds, tally, notes):
    """End-to-end metrics, tracing off: a closed loop of one client."""
    setup_s, reps = measure_setup(workload)
    workload.prepare_checks()
    times = []
    start = perf_counter()
    while perf_counter() - start < seconds:
        times.append(tally.run(workload, workload.job, len(times)))
    value, pct, beyond = tail(times)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_pipeline" else resource.RUSAGE_SELF
    ok = tally.attempted - tally.failed
    notes.update(setup_reps=reps, jobs=len(times), job_s_tail_percentile=round(pct, 2),
                 job_s_tail_jobs_beyond=beyond,
                 error_rate=tally.failed / tally.attempted)
    return {
        "setup_s": (setup_s, "s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (value, "s"),
        "jobs_per_s": (ok / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }


def run_traced(workload, seconds, tally, notes, seed):
    """Per-layer metrics from spans; untraced and traced jobs alternate."""
    import tracer as tr

    spans = tr.Tracer()
    with spans.installed():
        workload.setup()
    workload.prepare_checks()

    # The extra passes count against --seconds, so a traced run takes about
    # as long as an untraced one; at least two traced jobs always run.
    start = perf_counter()
    cli = {}
    if workload.name == "cli_pipeline":
        cli["import_s"] = statistics.median(workload.fresh_import_s() for _ in range(3))
        dt = tally.run(workload, workload.job, 0)
        cli["process_s"] = dt / len(workload.commands(workload.workdir))

    peaks = []
    with tr.plan_peak_bytes(peaks):
        workload.setup()
        tally.run(workload, workload.traced_job, 0)

    plain, traced, k = [], [], 0
    while k < 2 or perf_counter() - start < seconds:
        plain.append(tally.run(workload, workload.traced_job, k))
        with spans.installed():
            spans.job = k
            traced.append(tally.run(workload, workload.traced_job, k))
            spans.job = None
        k += 1

    spans.write(os.path.join(OUT, f"trace-{workload.name}-{seed}.json"))

    setup = tr.scope_totals(spans.spans, None)
    jobs = [tr.scope_totals(spans.spans, j) for j in range(k)]
    try:
        times, counts = tr.combine(setup, jobs)
    except ValueError as exc:
        tally.fail(str(exc))
        times, counts = tr.combine(setup, jobs[:1])
    metrics = tr.layer_metrics(times, counts, max(peaks, default=0), cli)
    uncovered = sum(t - tr.covered_time(spans.spans, j) for j, t in enumerate(traced))
    metrics["bench.trace_overhead_s"] = (
        statistics.median(traced) - statistics.median(plain), "s")
    metrics["bench.uncovered_share"] = (uncovered / sum(traced), "ratio")
    notes.update(traced_jobs=k, spans=len(spans.spans))
    check_counts_repeat(workload.name, seed, metrics, tr.EXACT_COUNTS, tally, notes)
    return metrics


def check_counts_repeat(name, seed, metrics, keys, tally, notes):
    """Fail the run if a work count differs from an earlier run of this
    workload, seed and source in the same checkout."""
    counts = {k: metrics[k][0] for k in keys}
    path = os.path.join(OUT, f"counts-{name}-{seed}-{notes['source_sha256'][:16]}.json")
    if os.path.exists(path):
        with open(path) as fh:
            before = json.load(fh)
        diff = sorted(k for k in keys if before.get(k) != counts[k])
        if diff:
            tally.fail(f"work counts differ from an earlier run: {diff}")
        notes["counts_repeat_checked"] = True
    else:
        with open(path, "w") as fh:
            json.dump(counts, fh, indent=1, sort_keys=True)
        notes["counts_repeat_checked"] = False


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "semfourier", "__init__.py")):
        sys.stderr.write(f"error: no semfourier sources under {SRC}\n")
        return 2

    nproc = cap_threads()
    sys.path.insert(0, SRC)
    import numpy
    import scipy
    import workloads

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    notes = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": git_rev(), "source_sha256": source_digest(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": nproc,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tally = Tally()
    try:
        workload = workloads.make(args.workload, args.seed, workdir, env)
        if args.trace:
            metrics = run_traced(workload, args.seconds, tally, notes, args.seed)
        else:
            metrics = run_plain(workload, args.seconds, tally, notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    notes["errors"] = tally.errors
    print("# " + json.dumps(notes, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} jobs failed)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
