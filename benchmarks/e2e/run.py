"""End-to-end diagnosis benchmark: one command prints every metric.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed S]
        [--seconds T] [--trace 0|1] [--smoke] [--repeat N] [--out FILE]

Each workload runs in its own fresh subprocess (``measure.py``), one at
a time.  Every metric is printed by name with its unit, every answer is
checked, and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of untraced rounds,
``--trace 1`` the per-layer metrics of a traced round; without
``--trace`` each workload is measured both ways, in two processes.
``--seconds`` (default: ``run_seconds`` of ``BENCHMARK.json``, which
the benchmark command line passes) bounds the repeat rounds of
``--trace 0``; the instance list never depends on it.  With several
workloads the metric names are prefixed by the workload name.
``--repeat N`` runs every workload N times on the same seed, reports
each metric's median and its spread, and requires identical digests
across the runs.  ``--out FILE`` also writes the results with the git
sha, the Python version and the CPU count (``baseline.json`` is such a
file).

The exit code is 0 when every answer checked out, 1 when a diagnosis
raised, a reported tuple failed re-verification or two digests of one
instance disagreed (rounds, repeats, or exact-sa and exact-jobs2), and
2 when a workload process failed without a report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from measure import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: exact-jobs2 runs exact-sa's instances at jobs=2; the engine promises
#: identical results at any pool width, so their digests must agree.
SAME_INSTANCES = ("exact-sa", "exact-jobs2")
RUN_SECONDS = 30
SMOKE_INSTANCES = 2
#: A workload process that outlives this is killed with its pool.
WORKER_TIMEOUT = 170


class WorkloadFailed(Exception):
    """A workload process ended without a report."""


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool) -> dict:
    """Measure one workload in a fresh process and return its report."""
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if smoke:
        cmd += ["--max-instances", str(SMOKE_INSTANCES)]
    # A session of its own lets a timeout kill the pool workers too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkloadFailed(f"{name}: no report within "
                             f"{WORKER_TIMEOUT} s") from None
    if proc.returncode != 0 or not out.strip():
        raise WorkloadFailed(f"{name}: measure.py exited with code "
                             f"{proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    """(max/min - 1, interquartile range / median) of repeated values;
    nan where the base is not positive (trace.overhead can dip below 0
    on a noisy host)."""
    lo, hi = min(values), max(values)
    if lo == hi:
        return 0.0, 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    nan = float("nan")
    return (hi / lo - 1 if lo > 0 else nan,
            (q3 - q1) / q2 if q2 > 0 else nan)


def combined_digest(digests: list) -> str:
    """One digest over a run's per-instance digests, in instance order."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def digests_agree(reports: list) -> bool:
    """Runs of one seed must report identical per-instance digests on
    the instances they share (a --trace 1 run covers the first half)."""
    common = min(len(r["digests"]) for r in reports)
    return len({tuple(r["digests"][:common]) for r in reports}) == 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", nargs="+", choices=list(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="time box of the repeat rounds of --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "of the traced round (default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_INSTANCES} instances per workload, "
                             "one round")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, for the spread")
    parser.add_argument("--out", type=pathlib.Path,
                        help="also write the results, stamped with the "
                             "git sha, Python version and CPU count")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.seconds < 0:
        parser.error("--repeat must be >= 1 and --seconds >= 0")

    traces = (0, 1) if args.trace is None else (args.trace,)
    units = {0: dict(END_TO_END), 1: dict(PER_LAYER)}
    seconds = 0 if args.smoke else args.seconds

    correct, attempted, failed, metrics = True, 0, 0, {}
    runs = {}
    for name in args.workload:
        reports = {}
        try:
            for trace in traces:
                reports[trace] = [run_workload(name, args.seed, seconds,
                                               trace, args.smoke)
                                  for _ in range(args.repeat)]
        except WorkloadFailed as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2
        every = [r for trace in traces for r in reports[trace]]
        runs[name] = every
        ok = digests_agree(every) and all(r["correct"] for r in every)
        correct = correct and ok
        attempted += sum(r["attempted"] for r in every)
        failed += sum(r["failed"] for r in every)
        print(f"{name}: seed={args.seed} jobs={every[0]['jobs']} "
              f"instances={[r['attempted'] for r in every]} "
              f"rounds={[r['rounds'] for r in every]} "
              f"failed={[r['failed'] for r in every]} "
              f"correct={ok} digest={combined_digest(every[0]['digests'])}")
        for report in every:
            for label, causes in report["failures"].items():
                print(f"  failed {label}: {', '.join(causes)}")
        for trace in traces:
            for metric, unit in units[trace].items():
                values = [r["metrics"][metric] for r in reports[trace]
                          if metric in r["metrics"]]
                if not values:      # every diagnosis of the run raised
                    continue
                value = statistics.median(values)
                line = f"  {metric} = {value!r} {unit}"
                if args.repeat > 1:
                    ratio, iqr = spread(values)
                    line += (f"  (max/min-1 {ratio:.4f}, "
                             f"iqr/median {iqr:.4f})")
                print(line)
                key = (metric if len(args.workload) == 1
                       else f"{name}.{metric}")
                metrics[key] = {"value": value, "unit": unit}
    if all(name in runs for name in SAME_INSTANCES):
        agree = digests_agree([r for name in SAME_INSTANCES
                               for r in runs[name]])
        print(f"{' and '.join(SAME_INSTANCES)} digests agree: {agree}")
        correct = correct and agree
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        write_results(args, result)
    print(json.dumps(result))
    return 0 if correct else 1


def write_results(args, result: dict) -> None:
    """Write a run's results with the provenance of the measurement."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    payload = {"git_sha": sha, "python": platform.python_version(),
               "nproc": os.cpu_count(), "seed": args.seed,
               "seconds": args.seconds, "smoke": args.smoke,
               "repeat": args.repeat, "workloads": args.workload, **result}
    args.out.write_text(json.dumps(payload, indent=1) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main())
