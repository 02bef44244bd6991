#!/usr/bin/env python
"""Diagnosing a two-net short (bridging fault).

The paper closes with: "we plan to apply this approach to other types
of physical faults.  The advantage of the algorithm lies in the fact
that it can be adapted to other faults by adopting a suitable fault
model in the correction stage" (§4.1).  This example adopts exactly
such a model: wired-AND / wired-OR bridging faults between two nets,
scored with the same bit-parallel machinery the engine uses for wire
corrections, and verified by forced-site propagation over all of V.

Run:  python examples/bridging_faults.py
"""

from repro.circuit import generators
from repro.faults.bridging import BridgingDiagnoser, inject_bridging_fault
from repro.sim import count_failing, output_rows, simulate
from repro.tgen import random_patterns


def main() -> None:
    spec = generators.alu(6)
    patterns = random_patterns(spec, 768, seed=3)
    spec_out = output_rows(spec, simulate(spec, patterns))

    workload = None
    for seed in range(40):
        candidate = inject_bridging_fault(spec, seed=seed)
        impl_out = output_rows(candidate.impl,
                               simulate(candidate.impl, patterns))
        if count_failing(spec_out, impl_out, patterns.nbits) > 0:
            workload = candidate
            break
    assert workload is not None
    record = workload.truth[0]
    print(f"design: {spec.name} ({len(spec)} gates)")
    print(f"injected (hidden): {record.kind} short between "
          f"{record.site} and {record.detail.lstrip('<->')}")

    diagnoser = BridgingDiagnoser(workload.impl, spec, patterns,
                                  partner_limit=25, time_budget=60.0)
    result = diagnoser.run()
    print(f"\nscored {result.candidates_scored} candidate bridges, "
          f"{len(result.faults)} reproduce the device exactly "
          f"({result.total_time:.2f}s):")
    truth_nets = {record.site, record.detail.lstrip("<->")}
    for fault in result.faults[:12]:
        mark = ("   <-- injected pair"
                if {fault.net_a, fault.net_b} == truth_nets else "")
        print(f"  {fault}{mark}")


if __name__ == "__main__":
    main()
