"""Command-line interface.

Subcommands::

    repro table1 [--scale S] [--trials N] [--circuits a,b] ...
    repro table2 [--scale S] [--trials N] ...
    repro ablation [--errors K] ...
    repro diagnose SPEC.bench IMPL.bench [--mode stuck-at|design-error]
                   [--jobs N] [--format json]
    repro lint FILE [FILE...] [--format json] [--strict] [--deep]
               [--prove] [--seq] ...
    repro facts FILE [FILE...] [--format json] [--no-deep] [--seq]
    repro prove A.bench B.bench [--budget N]   # SAT equivalence check
    repro inject SPEC.bench OUT.bench (--faults K | --errors K) [--seed N]
    repro compare [--faults 1,2]     # engine vs SAT vs dictionary
    repro convert IN.bench OUT.v     # netlist format conversion
    repro vcd IN.bench OUT.vcd       # waveform dump
    repro suite [--scale S]          # list the benchmark suite

``python -m repro.cli`` works too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analyze import DEFAULT_REGISTRY, lint_netlist
from .bench import (format_ablation, format_compare, format_table1,
                    format_table2, run_ablation, run_compare,
                    run_table1, run_table2)
from .circuit import bench_io, full_scan, generators, verilog_io
from .diagnose import (DiagnosisConfig, IncrementalDiagnoser, Mode,
                       TraceWriter, validate_trace_file)
from .errors import DiagnosisError
from .faults import inject_design_errors, inject_stuck_at_faults
from .tgen import random_patterns


def _suite(args) -> list:
    circuits = generators.benchmark_suite(args.scale)
    if args.circuits:
        wanted = set(args.circuits.split(","))
        circuits = [c for c in circuits if c.name in wanted]
        missing = wanted - {c.name for c in circuits}
        if missing:
            sys.exit(f"unknown circuit(s): {', '.join(sorted(missing))}")
    return circuits


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.5,
                        help="benchmark suite size scale (default 0.5)")
    parser.add_argument("--circuits", default="",
                        help="comma-separated circuit subset")
    parser.add_argument("--trials", type=int, default=3,
                        help="trials per table cell")
    parser.add_argument("--vectors", type=int, default=1024,
                        help="random vectors per trial")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--time-budget", type=float, default=60.0,
                        help="seconds per diagnosis run")


def cmd_suite(args) -> int:
    print(f"{'name':<10}{'gates':>7}{'PIs':>5}{'POs':>5}{'DFFs':>6}"
          f"{'depth':>7}")
    for circuit in _suite(args):
        stats = circuit.stats()
        print(f"{stats['name']:<10}{stats['gates']:>7}{stats['inputs']:>5}"
              f"{stats['outputs']:>5}{stats['dffs']:>6}{stats['depth']:>7}")
    return 0


def cmd_table1(args) -> int:
    fault_counts = tuple(int(x) for x in args.faults.split(","))
    rows = run_table1(_suite(args), fault_counts, args.trials,
                      args.vectors, args.seed,
                      time_budget=args.time_budget,
                      progress=_progress if args.verbose else None)
    print(format_table1(rows, fault_counts))
    return 0


def cmd_table2(args) -> int:
    error_counts = tuple(int(x) for x in args.errors.split(","))
    rows = run_table2(_suite(args), error_counts, args.trials,
                      args.vectors, args.seed,
                      time_budget=args.time_budget,
                      progress=_progress if args.verbose else None)
    print(format_table2(rows, error_counts))
    return 0


def cmd_ablation(args) -> int:
    results = run_ablation(_suite(args), args.num_errors, args.trials,
                           args.vectors, args.seed,
                           time_budget=args.time_budget)
    print(format_ablation(results))
    return 0


def cmd_compare(args) -> int:
    fault_counts = tuple(int(x) for x in args.faults.split(","))
    rows = run_compare(_suite(args), fault_counts, args.trials,
                       args.vectors, args.seed,
                       time_budget=args.time_budget)
    print(format_compare(rows, fault_counts))
    return 0


def cmd_diagnose(args) -> int:
    spec = bench_io.load(args.spec)
    impl = bench_io.load(args.impl)
    if not spec.is_combinational:
        spec = full_scan(spec)[0]
    if not impl.is_combinational:
        impl = full_scan(impl)[0]
    mode = Mode(args.mode)
    patterns = random_patterns(impl, args.vectors, args.seed)
    config = DiagnosisConfig(mode=mode, exact=(mode is Mode.STUCK_AT),
                             max_errors=args.max_errors,
                             time_budget=args.time_budget,
                             check_invariants=args.check_invariants,
                             prove_dedup=args.prove_dedup,
                             jobs=args.jobs,
                             seed=args.seed)
    trace_fh = None
    trace = None
    if args.trace:
        trace_fh = open(args.trace, "w", encoding="utf-8")
        trace = TraceWriter(trace_fh)
    try:
        try:
            if mode is Mode.STUCK_AT:
                # Fault-model the good netlist against the faulty device.
                engine = IncrementalDiagnoser(impl, spec, patterns,
                                              config, trace=trace)
            else:
                engine = IncrementalDiagnoser(spec, impl, patterns,
                                              config, trace=trace)
        except DiagnosisError as exc:
            sys.exit(f"repro diagnose: {exc}")
        result = engine.run()
    finally:
        if trace_fh is not None:
            trace_fh.close()
    if args.format == "json":
        print(json.dumps(_diagnose_json(result), indent=2))
    else:
        print(result.summary())
    return 0 if result.found else 1


def cmd_trace_check(args) -> int:
    """Schema-check a ``--trace`` JSONL file.  Exit 0 ok, 2 invalid."""
    failures = 0
    for path in args.files:
        errors = validate_trace_file(path)
        for err in errors:
            print(f"{path}: {err}")
        print(f"{path}: {'FAIL' if errors else 'ok'}")
        failures += bool(errors)
    return 2 if failures else 0


def _diagnose_json(result) -> dict:
    """Machine-readable diagnose report (solutions + search counters)."""
    stats = result.stats
    return {
        "found": result.found,
        "num_vectors": result.num_vectors,
        "initial_failing": result.initial_failing,
        "solutions": [
            {"corrections": sorted(r.signature for r in sol.records),
             "aliases": list(sol.aliases)}
            for sol in result.solutions],
        "stats": {
            "nodes": stats.nodes,
            "rounds": stats.rounds,
            "prescreen_dropped": stats.prescreen_dropped,
            "facts_reused": stats.facts_reused,
            "facts_recomputed": stats.facts_recomputed,
            "delta_edits": stats.delta_edits,
            "truncated": stats.truncated,
            "truncation_causes": list(stats.truncation_causes),
            "levels_tried": list(stats.levels_tried),
            "diag_time_s": stats.diag_time,
            "corr_time_s": stats.corr_time,
            "apply_time_s": stats.apply_time,
            "total_time_s": stats.total_time,
            "stages": list(stats.stages),
        },
    }


def _load_any(path, lint=None):
    """Load a netlist by extension (.bench or .v)."""
    if str(path).endswith(".v"):
        return verilog_io.load(path, lint=lint)
    return bench_io.load(path, lint=lint)


def cmd_lint(args) -> int:
    """Static-analysis lint.  Exit codes: 0 clean (or info-only),
    1 errors found (warnings too under --strict), 2 unreadable input."""
    from .errors import ReproError

    if args.list_rules:
        for rule in DEFAULT_REGISTRY:
            print(f"{rule.id:<20}{rule.group:<12}"
                  f"{str(rule.severity):<9}{rule.description}")
        return 0
    if not args.files:
        sys.exit("repro lint: no input files (see --list-rules)")
    suppress = [s.strip() for s in args.suppress.split(",") if s.strip()]
    worst = 0
    json_reports = []
    for path in args.files:
        try:
            netlist = _load_any(path, lint="off")
        except (ReproError, OSError) as exc:
            print(f"{path}: error: {exc}", file=sys.stderr)
            worst = max(worst, 2)
            continue
        try:
            report = lint_netlist(netlist, suppress=suppress,
                                  deep=args.deep, prove=args.prove,
                                  prove_budget=args.prove_budget,
                                  seq=args.seq,
                                  seq_budget=args.seq_budget,
                                  testability=args.testability,
                                  cc_threshold=args.cc_threshold,
                                  co_threshold=args.co_threshold)
        except KeyError as exc:
            sys.exit(f"repro lint: {exc.args[0]}")
        if args.format == "json":
            json_reports.append(report.to_dict())
        else:
            print(report.to_text())
        worst = max(worst, report.exit_code(strict=args.strict))
    if args.format == "json":
        print(json.dumps(json_reports, indent=2))
    return worst


def cmd_facts(args) -> int:
    """Dataflow facts digest.  Exit codes: 0 ok, 2 unreadable input."""
    from .analyze import netlist_facts
    from .errors import ReproError

    worst = 0
    digests = []
    for path in args.files:
        try:
            netlist = _load_any(path, lint="off")
        except (ReproError, OSError) as exc:
            print(f"{path}: error: {exc}", file=sys.stderr)
            worst = 2
            continue
        digests.append(netlist_facts(netlist).summary(
            deep=not args.no_deep, seq=args.seq,
            testability=args.testability))
    if args.format == "json":
        print(json.dumps(digests, indent=2))
        return worst
    for digest in digests:
        print(f"{digest['netlist']}: {digest['gates']} gates")
        for key in ("constants", "implied_constants"):
            if digest[key]:
                pretty = ", ".join(f"{name}={value}" for name, value
                                   in digest[key].items())
                print(f"  {key.replace('_', ' ')}: {pretty}")
        for group in digest["duplicate_groups"]:
            print(f"  duplicate logic: {' == '.join(group)}")
        if digest["unobservable"]:
            print(f"  unobservable: {', '.join(digest['unobservable'])}")
        if digest["odc_blocked"]:
            print(f"  odc-blocked: {', '.join(digest['odc_blocked'])}")
        if "implications" in digest:
            print(f"  closed implications: {digest['implications']}")
        if "seq" in digest:
            sq = digest["seq"]
            print(f"  seq: fixpoint stable after "
                  f"{sq['fixpoint_iterations']} sweep(s), "
                  f"k-induction k={sq['induction_k']}")
            if sq["stuck_registers"]:
                pretty = ", ".join(f"{name}={value}" for name, value
                                   in sq["stuck_registers"].items())
                print(f"  stuck registers: {pretty}")
            if sq["seq_constants"]:
                pretty = ", ".join(f"{name}={value}" for name, value
                                   in sq["seq_constants"].items())
                print(f"  seq constants: {pretty}")
            if sq["proven_constants"]:
                pretty = ", ".join(f"{name}={value}" for name, value
                                   in sq["proven_constants"].items())
                print(f"  induction constants: {pretty}")
            for group in sq["proven_classes"]:
                print(f"  seq equivalent: {' == '.join(group)}")
        if "testability" in digest:
            tb = digest["testability"]
            print(f"  scoap: max cc {tb['max_cc']}, "
                  f"max co {tb['max_co']}")
            for fault in tb["untestable_faults"]:
                print(f"  untestable: {fault}")
    return worst


def cmd_prove(args) -> int:
    """SAT combinational equivalence check of two netlists.

    Exit codes: 0 proven equivalent, 1 different (the distinguishing
    input vector is printed), 2 unreadable/mismatched input, 3 conflict
    budget exhausted (undecided).
    """
    from .analyze.prove import ProofStatus, prove_equivalent
    from .errors import ReproError

    try:
        a = _load_any(args.a, lint="off")
        b = _load_any(args.b, lint="off")
        if not a.is_combinational:
            a = full_scan(a)[0]
        if not b.is_combinational:
            b = full_scan(b)[0]
        verdict = prove_equivalent(a, b, conflict_budget=args.budget,
                                   seed=args.seed)
    except (ReproError, OSError) as exc:
        print(f"repro prove: error: {exc}", file=sys.stderr)
        return 2
    if verdict.status is ProofStatus.PROVEN:
        print(f"{args.a} == {args.b}: proven equivalent "
              f"({verdict.conflicts} conflicts)")
        return 0
    if verdict.status is ProofStatus.REFUTED:
        names = [a.gates[i].name for i in a.inputs]
        assignment = ", ".join(
            f"{name}={value}" for name, value
            in zip(names, verdict.counterexample))
        print(f"{args.a} != {args.b}: distinguishing vector "
              f"{assignment} ({verdict.conflicts} conflicts)")
        return 1
    print(f"{args.a} ?= {args.b}: undecided, conflict budget "
          f"exhausted ({verdict.conflicts} conflicts; retry with a "
          f"larger --budget)")
    return 3


def cmd_convert(args) -> int:
    netlist = _load_any(args.src)
    if str(args.out).endswith(".v"):
        verilog_io.dump(netlist, args.out)
    else:
        bench_io.dump(netlist, args.out)
    print(f"wrote {args.out} ({len(netlist.gates)} gates)")
    return 0


def cmd_vcd(args) -> int:
    from .sim import simulate, write_vcd

    netlist = _load_any(args.src)
    if not netlist.is_combinational:
        netlist = full_scan(netlist)[0]
    patterns = random_patterns(netlist, args.vectors, args.seed)
    values = simulate(netlist, patterns)
    signals = args.signals.split(",") if args.signals else None
    write_vcd(args.out, netlist, values, patterns.nbits,
              signals=signals,
              comment=f"{args.vectors} random vectors, seed {args.seed}")
    print(f"wrote {args.out}")
    return 0


def cmd_inject(args) -> int:
    spec = bench_io.load(args.spec)
    if args.num_faults:
        workload = inject_stuck_at_faults(spec, args.num_faults,
                                          args.seed)
    else:
        workload = inject_design_errors(spec, args.num_errors, args.seed)
    bench_io.dump(workload.impl, args.out)
    for record in workload.truth:
        print(f"injected {record.kind} at {record.site} {record.detail}")
    print(f"wrote {args.out}")
    return 0


def cmd_tgen(args) -> int:
    """Deterministic test generation with PODEM effort accounting.

    Exit codes: 0 ok (aborts allowed — they are reported, not fatal),
    2 unreadable input.
    """
    from .errors import ReproError
    from .tgen import deterministic_patterns_with_stats

    worst = 0
    payloads = []
    for path in args.files:
        try:
            netlist = _load_any(path, lint="off")
        except (ReproError, OSError) as exc:
            print(f"{path}: error: {exc}", file=sys.stderr)
            worst = 2
            continue
        if not netlist.is_combinational:
            netlist = full_scan(netlist)[0]
        pats, stats = deterministic_patterns_with_stats(
            netlist, seed=args.seed,
            backtrack_limit=args.backtrack_limit,
            compact=not args.no_compact,
            guide=not args.no_guide)
        if args.format == "json":
            payload = stats.to_dict()
            payload["netlist"] = netlist.name
            payloads.append(payload)
            continue
        mode = "guided" if stats.guided else "unguided"
        print(f"{netlist.name}: {stats.vectors} vector(s) for "
              f"{stats.targeted}/{stats.faults} collapsed fault(s) "
              f"({mode} PODEM)")
        print(f"  generated {stats.generated}, "
              f"untestable {stats.untestable} "
              f"({stats.static_untestable} statically, no search), "
              f"aborted {stats.aborted}")
        print(f"  effort: {stats.backtracks} backtrack(s), "
              f"{stats.implications} implication pass(es)")
    if args.format == "json":
        print(json.dumps(payloads, indent=2))
    return worst


def _progress(name, k, trial, result) -> None:
    print(f"  [{name} k={k} trial={trial}] "
          f"{len(result.solutions)} solution(s), "
          f"{result.stats.nodes} nodes, "
          f"{result.stats.total_time:.2f}s", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Incremental diagnosis & correction of multiple "
                    "faults and errors (DATE 2002 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("suite", help="list the benchmark suite")
    _add_common(p)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("table1", help="stuck-at diagnosis experiment")
    _add_common(p)
    p.add_argument("--faults", default="1,2,3,4",
                   help="comma-separated fault counts")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("table2", help="design-error (DEDC) experiment")
    _add_common(p)
    p.add_argument("--errors", default="3,4",
                   help="comma-separated error counts")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("ablation", help="heuristic/traversal ablations")
    _add_common(p)
    p.add_argument("--num-errors", type=int, default=3)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("compare",
                       help="engine vs SAT vs dictionary baselines")
    _add_common(p)
    p.add_argument("--faults", default="1,2",
                   help="comma-separated fault counts")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("diagnose", help="diagnose IMPL against SPEC")
    p.add_argument("spec")
    p.add_argument("impl")
    p.add_argument("--mode", choices=[m.value for m in Mode],
                   default=Mode.STUCK_AT.value)
    p.add_argument("--vectors", type=int, default=2048)
    p.add_argument("--max-errors", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--time-budget", type=float, default=120.0)
    p.add_argument("--jobs", type=int, default=1,
                   help="processes for the sharded decision-tree "
                        "search, counting this one (N-1 are forked); "
                        "any N returns the same solution list as "
                        "--jobs 1 (default 1)")
    p.add_argument("--check-invariants", action="store_true",
                   help="assert simulated values, Verr/Vcorr and "
                        "Theorem 1 invariants at every tree node (debug "
                        "mode)")
    p.add_argument("--prove-dedup", action="store_true",
                   help="SAT-equivalence-check surviving correction "
                        "candidates and collapse proven-equivalent "
                        "ones into one candidate with aliases")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="json adds the search counters (nodes, "
                        "facts_reused/facts_recomputed/delta_edits, "
                        "truncation causes, per-stage records) to the "
                        "solution list")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="write a JSONL event stream (run-start, one "
                        "event per pipeline stage, run-end) to FILE; "
                        "validate with 'repro trace-check'")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("trace-check",
                       help="schema-check a diagnose --trace file")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(func=cmd_trace_check)

    p = sub.add_parser("lint",
                       help="rule-based static analysis of a netlist")
    p.add_argument("files", nargs="*",
                   help=".bench or .v netlist files")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero on warnings too")
    p.add_argument("--suppress", default="",
                   help="comma-separated rule ids to skip")
    p.add_argument("--deep", action="store_true",
                   help="also run the dataflow-backed deep rules "
                        "(provable constants, duplicate logic, "
                        "ODC-masked lines)")
    p.add_argument("--prove", action="store_true",
                   help="also run the SAT-backed prove rules (proven "
                        "constants, proven duplicate logic, proven "
                        "redundant fanins)")
    p.add_argument("--prove-budget", type=int, default=None,
                   help="per-query conflict budget for --prove")
    p.add_argument("--seq", action="store_true",
                   help="also run the sequential seq rules (reset "
                        "fixpoint + k-induction: stuck registers, "
                        "sequential constants, redundant registers, "
                        "sequential equivalences)")
    p.add_argument("--seq-budget", type=int, default=None,
                   help="per-query conflict budget for --seq")
    p.add_argument("--testability", action="store_true",
                   help="also run the testability rules (SCOAP cost "
                        "outliers, statically untestable stuck-at "
                        "faults with provenance)")
    p.add_argument("--cc-threshold", type=int, default=None,
                   help="SCOAP controllability alarm threshold for "
                        "--testability (default 64)")
    p.add_argument("--co-threshold", type=int, default=None,
                   help="SCOAP observability alarm threshold for "
                        "--testability (default 64)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule table and exit")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("facts",
                       help="dataflow facts digest (constants, "
                            "equivalences, implications, ODCs)")
    p.add_argument("files", nargs="+",
                   help=".bench or .v netlist files")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--no-deep", action="store_true",
                   help="skip the implication closure (cheaper)")
    p.add_argument("--seq", action="store_true",
                   help="also report sequential facts (reset fixpoint, "
                        "stuck registers, k-induction constants and "
                        "correspondence classes)")
    p.add_argument("--testability", action="store_true",
                   help="also report SCOAP cost extremes and "
                        "statically untestable stuck-at faults")
    p.set_defaults(func=cmd_facts)

    p = sub.add_parser("prove",
                       help="SAT equivalence check of two netlists "
                            "(e.g. before/after an applied correction)")
    p.add_argument("a", help="first netlist (.bench or .v)")
    p.add_argument("b", help="second netlist (.bench or .v)")
    p.add_argument("--budget", type=int, default=100_000,
                   help="conflict budget before giving up (exit 3)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("convert",
                       help="convert between .bench and .v")
    p.add_argument("src")
    p.add_argument("out")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("vcd", help="dump simulated waveforms to VCD")
    p.add_argument("src")
    p.add_argument("out")
    p.add_argument("--vectors", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--signals", default="",
                   help="comma-separated signal names (default: PIs+POs)")
    p.set_defaults(func=cmd_vcd)

    p = sub.add_parser("tgen",
                       help="deterministic PODEM test generation with "
                            "effort accounting")
    p.add_argument("files", nargs="+",
                   help=".bench or .v netlist files (sequential "
                        "netlists are full-scanned first)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backtrack-limit", type=int, default=120,
                   help="per-fault PODEM backtrack budget (default 120)")
    p.add_argument("--no-guide", action="store_true",
                   help="disable SCOAP cost guidance and the static "
                        "untestable-fault pre-check")
    p.add_argument("--no-compact", action="store_true",
                   help="skip reverse-order fault-simulation "
                        "compaction of the vector set")
    p.set_defaults(func=cmd_tgen)

    p = sub.add_parser("inject", help="corrupt a netlist")
    p.add_argument("spec")
    p.add_argument("out")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--faults", dest="num_faults", type=int, default=0)
    group.add_argument("--errors", dest="num_errors", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_inject)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe; silence
        # the shutdown flush too, and exit like a SIGPIPE'd process.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
