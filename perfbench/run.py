"""fsplit benchmark: one command, three workloads, answer-gated timings.

    python3 perfbench/run.py [--workload elim_fp|sweep_cli|ratfunc|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout (it needs ``src/fsplit``). Each workload runs
in a fresh single-threaded worker process (``worker.py``) with PYTHONPATH set
to ``src`` and every BLAS/OpenMP thread variable set to 1. The worker runs
passes over the workload's job list for about ``--seconds`` and checks every
answer against ``answers.json``. Job and pass times are reported in units
of a fixed pure-Python reference loop ("ref") that a timer runs all through
the passes, which cancels the host's drifting speed; set-up time is the median of several
fresh processes that each import fsplit and build the workload's inputs,
half started before the measured run and half after it.

It prints a table (metric, value, unit, sample count) and the environment,
then, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``
(spans go to ``.perfbench/spans-<workload>-seed<N>.jsonl``). The exit code
is 1 when any job raised, was refused, or returned a wrong answer, and 2 when
the checkout has no ``src/fsplit``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs HERE on sys.path)

SETUP_SAMPLES = 8  # half before and half after the measured run
SETUP_TIMEOUT_S = 10
RUN_GRACE_S = 90
# One BLAS/OpenMP thread: ``import fsplit`` pulls in numpy through the oracle.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class WorkerError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def _worker(args: list, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {timeout} s: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup(common: list) -> float:
    return _worker(["setup"] + common, SETUP_TIMEOUT_S)["setup_s"]


def measure(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """Run one workload; return (metrics {name: (value, unit, samples)}, result, spans path)."""
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--scratch", str(scratch)]
    spans = scratch / f"spans-{workload}-seed{seed}.jsonl"
    run_args = ["run", "--seconds", str(seconds), "--trace", str(trace)] + common
    if trace:
        run_args += ["--spans", str(spans)]
    setups = []
    if not trace:
        setups += [_setup(common) for _ in range(SETUP_SAMPLES // 2)]
    result = _worker(run_args, seconds + RUN_GRACE_S)
    plain = [p for p in result["passes"] if not p["traced"]]
    metrics = {}
    if trace:
        wall = median(p["wall_s"] for p in plain)
        traced_wall = median(p["wall_s"] for p in result["passes"] if p["traced"])
        n = len(result["passes"]) - len(plain)
        for name, value in result["layers"].items():
            unit = "s" if name.endswith("_s") else "count"
            metrics[name] = (value, unit, n)
        metrics["trace.wall_s"] = (traced_wall, "s", n)
        metrics["trace.overhead_s"] = (traced_wall - wall, "s", n)
        for share, part in (
            ("groebner.buchberger_elim_share", "groebner.buchberger_elim_s"),
            ("fields.ratfunc_share", "fields.ratfunc_s"),
        ):
            metrics[share] = (result["layers"][part] / traced_wall, "fraction", n)
        return metrics, result, spans
    setups += [_setup(common) for _ in range(SETUP_SAMPLES - len(setups))]
    # The host's speed drifts by up to 2x over seconds to minutes, so each
    # job's time is taken in units of the reference loop timed during it
    # (worker.HostSpeed): the ratio stays put while the seconds do not.
    norm = [{j: p["job_s"][j] / p["ref_s"][j] for j in p["job_s"]} for p in plain]
    per_job = [median(n[j] for n in norm) for j in norm[0]]
    metrics["wall_ref"] = (median(sum(n.values()) for n in norm), "ref", len(norm))
    metrics["job_p50_ref"] = (median(per_job), "ref", len(per_job))
    metrics["job_max_ref"] = (max(per_job), "ref", len(norm))
    metrics["setup_s"] = (median(setups), "s", len(setups))
    metrics["peak_rss_mib"] = (result["peak_rss_kib"] / 1024, "MiB", 1)
    result["raw"] = {
        "wall_s": median(p["wall_s"] for p in plain),
        "ref_ms": 1000 * median(r for p in plain for r in p["ref_s"].values()),
    }
    return metrics, result, None


def _print_table(workload: str, metrics: dict, result: dict, spans) -> None:
    attempted = result["jobs"] * len(result["passes"])
    failed = len(result["failures"])
    print(f"# {workload}: seed {result['seed']}, {result['jobs']} jobs, "
          f"{len(result['passes'])} passes, env {json.dumps(result['env'])}")
    for name, (value, unit, n) in metrics.items():
        print(f"{workload:10s} {name:36s} {value:>14.6g} {unit:8s} n={n}")
    print(f"{workload:10s} {'fail_rate':36s} {failed / attempted:>14.6g} {'fraction':8s} "
          f"n={attempted}")
    if "raw" in result:
        print(f"# {workload}: in seconds, median pass {result['raw']['wall_s']:.6g} s; "
              f"one ref = median reference loop {result['raw']['ref_ms']:.6g} ms")
    if result.get("unstable_counts"):
        print(f"# {workload}: counts differed between traced passes: {result['unstable_counts']}")
    if spans is not None:
        print(f"# {workload}: spans written to {spans.relative_to(ROOT)}")
    for failure in result["failures"]:
        print(f"# {workload}: FAILED {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fsplit benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fsplit" / "__init__.py").is_file():
        print(f"run.py: no fsplit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    combined = {}
    for name in names:
        try:
            metrics, result, spans = measure(name, args.seed, args.seconds, args.trace)
        except WorkerError as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 1
        _print_table(name, metrics, result, spans)
        attempted += result["jobs"] * len(result["passes"])
        failed += len(result["failures"])
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, (value, unit, _) in metrics.items():
            combined[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": combined,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
