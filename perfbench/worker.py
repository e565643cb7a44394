"""One workload in one fresh, single-threaded process.

    python3 perfbench/worker.py setup --workload W --seed N --scratch DIR
    python3 perfbench/worker.py run --workload W --seed N --scratch DIR
                                    --seconds S --trace 0|1 [--spans FILE]

``setup`` times ``import fsplit`` plus parsing, scaling and writing every
input of the workload, and prints {"setup_s": ...}.

``run`` builds the inputs, then runs passes over the job list back to back
for about ``--seconds`` (at least one pass; a pass is started only while the
previous one of its kind suggests it ends in time) and prints one JSON object
with the per-pass and per-job times, the peak RSS, and the failures. With
``--trace 0`` a timer samples the host's speed all through the passes
(``HostSpeed``) and each job also gets the reference-loop time during it;
the time spent sampling is taken out of every reported time. With
``--trace 1`` untraced and traced passes alternate, the traced ones giving
the per-layer numbers; spans are written to ``--spans`` at the end.

Both expect PYTHONPATH to reach ``src`` and the BLAS thread variables set to
1 before start (``run.py`` does both).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import tracing
import workloads

SAMPLE_EVERY_S = 0.1  # interval of the host-speed samples
SAMPLE_PAD_S = 0.3  # a job's speed is the median of the samples this close to it


def _build(workload: str, seed: int, scratch: Path):
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=scratch))
    t0 = time.perf_counter()
    import fsplit  # noqa: F401  (timed: part of set-up)
    import fsplit.cli  # noqa: F401

    jobs = workloads.build(workload, seed, workdir)
    return jobs, time.perf_counter() - t0, workdir


def _reference_once() -> int:
    """A fixed pure-Python sparse product mod 7 (120 x 60 terms, 3 variables)."""
    f = {(i, j, k): (i + 2 * j + 3 * k) % 7 + 1
         for i in range(6) for j in range(5) for k in range(4)}
    g = {(i, j, k): (3 * i + j + k) % 7 + 1
         for i in range(5) for j in range(4) for k in range(3)}
    out = {}
    for a, ca in f.items():
        for b, cb in g.items():
            m = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            out[m] = (out.get(m, 0) + ca * cb) % 7
    return len(out)


class HostSpeed:
    """Samples the host's speed: times the reference loop every SAMPLE_EVERY_S.

    The reference loop has the make-up of fsplit's inner loops (dicts keyed
    by exponent tuples, small-integer arithmetic) and never calls fsplit, so
    a change to fsplit cannot move it, while the host's momentary speed moves
    it as much as the jobs. A SIGALRM interval timer runs it, so a job of
    several seconds is sampled all through, not only at its ends. Use as a
    context manager around the timed passes.
    """

    def __init__(self):
        self.starts = []  # perf_counter() when each sample began
        self.seconds = []  # how long each sample took
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _reference_once()
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def spent(self, start: float, end: float) -> float:
        """Seconds spent sampling between two perf_counter() readings."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.seconds[lo:hi])

    def reference(self, start: float, end: float) -> float:
        """Median reference-loop time over [start, end], widened by SAMPLE_PAD_S."""
        lo = bisect.bisect_left(self.starts, start - SAMPLE_PAD_S)
        hi = bisect.bisect_left(self.starts, end + SAMPLE_PAD_S)
        return median(self.seconds[lo:hi] or self.seconds)


def _run_pass(jobs, answers, tracer=None):
    """One pass over the jobs.

    Returns ((start, end) of the pass, {job id: (start, end)}, failures); the
    times are perf_counter() readings.
    """
    spans = {}
    failures = []
    t_pass = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        t0 = time.perf_counter()
        try:
            result = job.run()
        except Exception as exc:  # any raise is a failed job, reported below
            result = None
            failures.append(f"{job.id}: {type(exc).__name__}: {exc}")
        spans[job.id] = (t0, time.perf_counter())
        if result is not None:
            problem = workloads.check(job, result, answers)
            if problem:
                failures.append(problem)
    return (t_pass, time.perf_counter()), spans, failures


def _environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run(args, scratch: Path) -> dict:
    jobs, setup_s, workdir = _build(args.workload, args.seed, scratch)
    answers = workloads.load_answers()
    passes = []  # (traced, (start, end), {job id: (start, end)})
    failures = []
    tracers = []
    last = {}
    need = 2 if args.trace else 1  # the first pass of each kind always runs
    # Untraced runs sample the host's speed; traced runs report seconds only.
    speed = None if args.trace else HostSpeed()
    try:
        with speed or contextlib.nullcontext():
            start = time.perf_counter()
            while True:
                traced = bool(args.trace) and len(passes) % 2 == 1
                elapsed = time.perf_counter() - start
                if len(passes) >= need and elapsed + last[traced] > args.seconds:
                    break
                tracer = None
                if traced:
                    tracer = tracing.Tracer()
                    tracer.install()
                try:
                    bounds, spans, failed = _run_pass(jobs, answers, tracer)
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                if tracer is not None:
                    tracers.append(tracer)
                passes.append((traced, bounds, spans))
                failures.extend(failed)
                last[traced] = bounds[1] - bounds[0]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def seconds(t0, t1):
        """Time between two readings, less the time spent sampling the host."""
        return t1 - t0 - (speed.spent(t0, t1) if speed else 0.0)

    records = []
    for traced, bounds, spans in passes:
        record = {
            "traced": traced,
            "wall_s": seconds(*bounds),
            "job_s": {job: seconds(*span) for job, span in spans.items()},
        }
        if speed:
            record["ref_s"] = {job: speed.reference(*span) for job, span in spans.items()}
        records.append(record)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "jobs": len(jobs),
        "passes": records,
        "failures": failures,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": _environment(),
    }
    if tracers:
        metrics, unstable = tracing.combine([t.layer_metrics() for t in tracers])
        out["layers"] = metrics
        out["unstable_counts"] = unstable
        if args.spans:
            tracing.write_spans(args.spans, tracers)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="file for the traced spans (JSON lines)")
    parser.add_argument("--scratch", required=True, help="existing directory for ring-spec files")
    args = parser.parse_args(argv)
    scratch = Path(args.scratch)
    if args.mode == "setup":
        _, setup_s, workdir = _build(args.workload, args.seed, scratch)
        shutil.rmtree(workdir, ignore_errors=True)
        out = {"setup_s": setup_s}
    else:
        out = run(args, scratch)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
