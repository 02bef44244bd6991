#!/usr/bin/env python3
"""Layer benchmarks: one runner for the simulation and analysis suites.

    python benchmarks/harness.py                        # full run
    python benchmarks/harness.py --smoke --out FILE     # reduced CI run
    python benchmarks/harness.py --check BENCH_layers.json

Each suite module under ``layers/`` (sim, analyze, prove, seq and
testability) builds its own workloads and exports three names:

* ``REQUIRED`` — ``{record kind: required keys}``;
* ``run(smoke)`` — the suite's records, one dict per measurement, each
  tagged with its ``kind``;
* ``check(records)`` — error strings for every broken invariant among
  records that carry all their required keys.

The harness runs every suite, checks required keys, calls each suite's
``check``, stamps provenance (git sha, Python version, CPU count) and
writes one payload, ``BENCH_layers.json``.  Checks enforce structure
and soundness (verdict sums, equal fault lists, unchanged answers),
never timings: shared runners make wall-clock assertions meaningless,
and a slow run is a valid run.  Any check error exits 2.

How fast diagnosis itself runs is ``benchmarks/e2e``'s question.
"""

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from repro.circuit import generators

HERE = Path(__file__).resolve().parent
SCHEMA = "repro.bench_layers/1"
SUITES = ("sim", "analyze", "prove", "seq", "testability")
PROVENANCE = ("git_sha", "python", "cpus")

#: Size multiplier of the generated suite circuits the analysis suites
#: run on (the sim suite picks its own sizes).
SCALE = 0.35


def named_circuit(name: str):
    """``alu4``, ``rca8`` or the suite circuit ``name`` at :data:`SCALE`."""
    if name == "alu4":
        return generators.alu(4)
    if name == "rca8":
        return generators.ripple_carry_adder(8)
    return generators.by_name(name, scale=SCALE)


def best_of(fn, repeats: int = 1):
    """(best wall seconds, last result) over ``repeats`` calls of ``fn``."""
    best = result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        best = wall if best is None else min(best, wall)
    return best, result


def suite(name: str):
    """The suite module ``layers/<name>.py``."""
    return importlib.import_module(f"layers.{name}")


def provenance() -> dict:
    """Git sha (None outside a checkout), Python version, CPU count."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"git_sha": sha, "python": platform.python_version(),
            "cpus": os.cpu_count()}


def run(smoke: bool) -> dict:
    suites = {}
    for name in SUITES:
        wall, suites[name] = best_of(lambda: suite(name).run(smoke))
        print(f"{name:<12} {len(suites[name]):>3} records  {wall:6.2f} s")
    return {"schema": SCHEMA, "smoke": smoke, "provenance": provenance(),
            "suites": suites}


def check_suite(name: str, records: list) -> list:
    """Required-key errors plus the suite's own check on complete records."""
    module = suite(name)
    errors, complete = [], []
    for rec in records:
        kind = rec.get("kind")
        where = f"{name}/{kind}/{rec.get('circuit')}"
        required = module.REQUIRED.get(kind)
        if required is None:
            errors.append(f"{where}: unknown record kind")
            continue
        missing = [key for key in required if key not in rec]
        if missing:
            errors.append(f"{where}: missing {', '.join(missing)}")
        else:
            complete.append(rec)
    return errors + [f"{name}/{err}" for err in module.check(complete)]


def validate(payload) -> list:
    """Every error in a layer payload ([] when valid)."""
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    errors = []
    if payload.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA}")
    stamp = payload.get("provenance")
    if not isinstance(stamp, dict) or not set(PROVENANCE) <= set(stamp):
        errors.append("provenance must stamp " + ", ".join(PROVENANCE))
    suites = payload.get("suites")
    if not isinstance(suites, dict):
        return errors + ["suites must be an object"]
    for name in SUITES:
        records = suites.get(name)
        if not isinstance(records, list) or not records:
            errors.append(f"{name}: no records")
        elif not all(isinstance(rec, dict) for rec in records):
            errors.append(f"{name}: every record must be an object")
        else:
            errors += check_suite(name, records)
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="run, check and write the layer benchmarks")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced workloads for CI")
    parser.add_argument("--out", type=Path,
                        default=HERE.parent / "BENCH_layers.json",
                        help="payload to write (default: BENCH_layers.json)")
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="validate a written payload and exit")
    args = parser.parse_args(argv)
    if args.check:
        try:
            payload = json.loads(args.check.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"{args.check}: unreadable ({exc})", file=sys.stderr)
            return 2
    else:
        payload = run(args.smoke)
    errors = validate(payload)
    for err in errors:
        print(f"check: {err}", file=sys.stderr)
    if errors:
        return 2
    if args.check:
        print(f"{args.check}: ok")
    else:
        args.out.write_text(json.dumps(payload, indent=1) + "\n",
                            encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
