"""Measure one workload in its own process; ``run.py`` spawns this.

One client drives the engine in a closed loop: each instance is handed
to :class:`repro.diagnose.IncrementalDiagnoser` and checked before the
next one starts.  The instance list is fixed by the workload and the
seed, so every count below is the same on a fast and a slow host.

- ``--trace 0`` runs untraced rounds over the instance list, the next
  round only if it fits in ``--seconds`` (the first always runs; the
  instance counts are set so that one round takes about that long).
  Each instance's time is the best of its rounds; that gives every
  end-to-end metric.
- ``--trace 1`` runs the first half of the instance list twice: one
  untraced round, then one round with the span tracer installed around
  each diagnosis and removed after it.  That gives every per-layer
  metric in about the time of a ``--trace 0`` run.

One untimed diagnosis of the first instance comes first, so lazy
imports and first-use set-up are not timed.

Every diagnosis starts from fresh copies of the instance's netlists, so
no run inherits caches an earlier run left on them.  Every reported
tuple's netlist is re-simulated on all of V and compared with the spec
responses.  Each run is hashed into a digest (sorted tuple descriptions
plus tree nodes) that every other round must reproduce.  A diagnosis
that raises, an invalid tuple or a changed digest makes the report
incorrect.

Prints one JSON report; the per-instance records go to ``out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    # Never fall back to some other installed copy of the package.
    raise SystemExit(f"measure.py: no source tree at {SRC}")
sys.path.insert(0, str(SRC))

from repro.diagnose import IncrementalDiagnoser, matches_truth  # noqa: E402
from repro.diagnose.bitlists import reference_outputs  # noqa: E402
from repro.sim.compare import equivalent  # noqa: E402

from instances import WORKLOADS, InstanceStream  # noqa: E402
from spans import SPAN_NAMES, Tracer  # noqa: E402

OUT = HERE / "out"

#: (name, unit) of every end-to-end metric, from the untraced rounds.
END_TO_END = (
    ("diag_s.p50", "s"),
    ("diag_s.p75", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, from the traced round.
PER_LAYER = tuple(
    [(f"{span}.{kind}", unit) for span in SPAN_NAMES
     for kind, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))]
    + [("search.nodes", "count"),
       ("engine.leaf_waste_ratio", "ratio"),
       ("screening.prescreen.drop_ratio", "ratio"),
       ("screening.verr.pass_ratio", "ratio"),
       ("screening.corrections.pass_ratio", "ratio"),
       ("analyze.facts_reuse_ratio", "ratio"),
       ("parallel.shards", "count"),
       ("parallel.shard_s", "s"),
       ("parallel.overhead_s", "s"),
       ("parallel.utilization", "ratio"),
       ("pipeline.search_share", "ratio"),
       ("trace.overhead", "ratio"),
       ("recovered_rate", "ratio"),
       ("unsolved_rate", "ratio"),
       ("tuples", "count"),
       ("redraws", "count")])


def diagnose(inst, tracer: Tracer | None = None) -> dict:
    """Run one instance end to end and check every reported tuple."""
    spec, impl = inst.spec.copy(), inst.impl.copy()
    try:
        with tracer.installed(inst.index) if tracer else nullcontext():
            t0 = perf_counter()
            diagnoser = IncrementalDiagnoser(spec, impl, inst.patterns,
                                             inst.config)
            t1 = perf_counter()
            result = diagnoser.run()
            t2 = perf_counter()
    except Exception:  # one broken instance must not hide the others
        print(f"{inst.label}: diagnosis raised", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return {"failure": "raised", "digest": "raised"}
    solutions = result.solutions
    stats = result.stats
    invalid = sum(
        not equivalent(inst.reference,
                       reference_outputs(s.netlist, inst.patterns),
                       inst.patterns.nbits)
        for s in solutions)
    text = "\n".join(sorted(s.describe() for s in solutions))
    digest = hashlib.sha256(f"{text}\nnodes={stats.nodes}".encode())
    return {
        "setup_s": t1 - t0, "run_s": t2 - t1,
        "search_s": sum(rec["wall_s"] for rec in stats.stages
                        if rec["stage"] == "search"),
        "nodes": stats.nodes, "tuples": len(solutions),
        "solved": bool(solutions) and not stats.truncated,
        "recovered": any(matches_truth(s, inst.truth) for s in solutions),
        "shards": len(stats.shards),
        "shard_s": sum(s["wall_s"] for s in stats.shards),
        "facts_reused": stats.facts_reused,
        "facts_recomputed": stats.facts_recomputed,
        "failure": "invalid tuple" if invalid else None,
        "digest": digest.hexdigest()[:16],
    }


def run_rounds(instances: list, seconds: float) -> list:
    """Untraced rounds over the instances; a round starts only if one
    more round of the last one's length fits in ``seconds``."""
    rounds = []
    start = perf_counter()
    while True:
        begin = perf_counter()
        rounds.append([diagnose(inst) for inst in instances])
        now = perf_counter()
        if now - start + (now - begin) > seconds:
            return rounds


def measure(name: str, seed: int, seconds: float, trace: bool,
            max_instances: int | None = None) -> dict:
    """Measure one workload; returns metrics, digests and failures."""
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    stream = InstanceStream(workload, seed)
    count = workload.instances
    if max_instances is not None:
        count = min(count, max_instances)
    instances = [stream.instance(t) for t in range(count)]
    diagnose(instances[0])
    if trace:
        instances = instances[:(count + 1) // 2]
        untraced = [diagnose(inst) for inst in instances]
        tracer = Tracer()
        traced = [diagnose(inst, tracer) for inst in instances]
        rounds = [untraced, traced]
        metrics = per_layer(untraced, traced, tracer, workload.jobs,
                            instances)
        tracer.dump(OUT / f"spans-{name}-seed{seed}.jsonl")
    else:
        rounds = run_rounds(instances, seconds)
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024)
        metrics = end_to_end(rounds, peak_rss_mb)
    per_instance = list(zip(*rounds))
    failures = {}
    for inst, inst_runs in zip(instances, per_instance):
        causes = {run["failure"] for run in inst_runs if run["failure"]}
        if len({run["digest"] for run in inst_runs}) > 1:
            causes.add("digest changed")
        if causes:
            failures[inst.label] = sorted(causes)
    with open(OUT / f"instances-{name}-seed{seed}-trace{int(trace)}.jsonl",
              "w", encoding="utf-8") as fh:
        for inst, inst_runs in zip(instances, per_instance):
            fh.write(json.dumps({"label": inst.label,
                                 "redraws": inst.redraws,
                                 "runs": inst_runs}) + "\n")
    return {"workload": name, "seed": seed, "jobs": workload.jobs,
            "rounds": len(rounds), "attempted": len(instances),
            "failed": len(failures), "failures": failures,
            "correct": not failures,
            "digests": [run["digest"] for run in rounds[0]],
            "metrics": metrics}


def end_to_end(rounds: list, peak_rss_mb: float) -> dict:
    """End-to-end metrics: each instance's best of the untraced rounds.

    Instances whose diagnosis raised are left out; they make the report
    incorrect anyway.
    """
    best = [{"setup_s": min(run["setup_s"] for run in inst_runs),
             "run_s": min(run["run_s"] for run in inst_runs)}
            for inst_runs in zip(*rounds)
            if all("run_s" in run for run in inst_runs)]
    if not best:
        return {}
    times = [run["run_s"] for run in best]
    p50, p75 = (statistics.quantiles(times, n=4)[1:]
                if len(times) > 1 else times * 2)
    return {
        "diag_s.p50": p50,
        "diag_s.p75": p75,
        "setup_s": statistics.median(run["setup_s"] for run in best),
        "peak_rss_mb": peak_rss_mb,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(untraced: list, traced: list, tracer: Tracer, jobs: int,
              instances: list) -> dict:
    """Per-layer metrics of the traced round, plus run-level ratios."""
    metrics = {}
    for span, (calls, total, self_s) in tracer.totals.items():
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.s"] = total
        metrics[f"{span}.self_s"] = self_s
    counts = tracer.counts
    both = [(run, again) for run, again in zip(untraced, traced)
            if "run_s" in run and "run_s" in again]
    ok = [again for _run, again in both]
    timed = [run for run in untraced if "run_s" in run]
    children = tracer.totals["engine.child"][0]
    expanded = tracer.totals["engine.candidates"][0]
    wall = tracer.totals["parallel.run_shards"][1]
    shard_s = sum(r["shard_s"] for r in ok)
    reused = sum(r["facts_reused"] for r in ok)
    metrics.update({
        "search.nodes": sum(r["nodes"] for r in ok),
        "engine.leaf_waste_ratio": _ratio(
            children - counts["engine.child.solutions"] - expanded,
            children),
        "screening.prescreen.drop_ratio": _ratio(
            counts["screening.prescreen.dropped"],
            counts["screening.prescreen.in"]),
        "screening.verr.pass_ratio": _ratio(
            counts["screening.verr.passed"],
            tracer.totals["screening.verr"][0]),
        "screening.corrections.pass_ratio": _ratio(
            counts["screening.corrections.passed"],
            counts["screening.corrections.in"]),
        "analyze.facts_reuse_ratio": _ratio(
            reused, reused + sum(r["facts_recomputed"] for r in ok)),
        "parallel.shards": sum(r["shards"] for r in ok),
        "parallel.shard_s": shard_s,
        "parallel.overhead_s": wall - shard_s / jobs if wall else 0.0,
        "parallel.utilization": _ratio(shard_s, jobs * wall),
        "pipeline.search_share": _ratio(
            sum(r["search_s"] for r in timed),
            sum(r["run_s"] for r in timed)),
        "trace.overhead": _ratio(
            sum(a["setup_s"] + a["run_s"] for _r, a in both),
            sum(r["setup_s"] + r["run_s"] for r, _a in both)) - 1.0,
        "recovered_rate": _ratio(sum(r["recovered"] for r in timed),
                                 len(untraced)),
        "unsolved_rate": _ratio(sum(not r["solved"] for r in timed),
                                len(untraced)),
        "tuples": sum(r["tuples"] for r in timed),
        "redraws": sum(inst.redraws for inst in instances),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--max-instances", type=int)
    args = parser.parse_args(argv)
    report = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.max_instances)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
