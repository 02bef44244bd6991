"""Baseline diagnosis algorithms for comparison and ground truth.

* :func:`dictionary_diagnosis` — the classic single-stuck-at fault
  dictionary: fault-simulate every fault, return those whose response
  signature matches the observed failures exactly.  Fast and standard,
  but inherently single-fault.
* :func:`exhaustive_multifault_diagnosis` — brute force over all
  cardinality-N stuck-at combinations.  Exponential; usable only on
  small circuits, where it provides the ground truth the incremental
  engine's exact mode is validated against.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..circuit.lines import LineTable
from ..circuit.netlist import Netlist
from ..faults.models import apply_correction, stuck_at_correction
from ..sim.compare import failing_vector_mask, masked
from ..sim.faultsim import FaultSimulator, SimFault, all_faults
from ..sim.logicsim import output_rows, simulate
from ..sim.packing import PatternSet, popcount
from .report import CorrectionRecord, Solution


def dictionary_diagnosis(spec: Netlist, impl: Netlist,
                         patterns: PatternSet) -> list[SimFault]:
    """Single-fault dictionary lookup.

    Simulates every stuck-at fault *on the specification* and returns
    faults whose full per-output response signature equals the observed
    (implementation) behaviour.  Empty when no single fault explains it.
    """
    fsim = FaultSimulator(spec, patterns)
    impl_out = output_rows(impl, simulate(impl, patterns))
    observed = masked(fsim.good_outputs ^ impl_out, patterns.nbits)
    return [fault for fault in all_faults(fsim.table)
            if np.array_equal(fsim.output_response(fault), observed)]


def exhaustive_multifault_diagnosis(spec: Netlist, impl: Netlist,
                                    patterns: PatternSet,
                                    max_faults: int = 2,
                                    max_lines: int = 80
                                    ) -> list[Solution]:
    """Brute-force all stuck-at tuples up to ``max_faults`` that rectify
    the implementation on ``patterns``.  Minimal-size tuples only.

    Intentionally naive (applies every combination structurally and
    re-simulates): this is the oracle, not a contender.
    """
    spec_out = output_rows(spec, simulate(spec, patterns))
    table = LineTable(impl)
    if len(table) > max_lines:
        raise ValueError(
            f"{len(table)} lines exceed the exhaustive-baseline cap "
            f"({max_lines}); use a smaller circuit")
    base_fail = popcount(failing_vector_mask(
        spec_out, output_rows(impl, simulate(impl, patterns)),
        patterns.nbits))
    if base_fail == 0:
        return []
    options = [(line.index, value) for line in table for value in (0, 1)]
    for size in range(1, max_faults + 1):
        solutions = []
        for combo in itertools.combinations(options, size):
            lines_used = [c[0] for c in combo]
            if len(set(lines_used)) < size:
                continue
            candidate = impl.copy()
            # Line indices shift as constants are added; apply via the
            # *original* table which stays valid for original lines.
            for line_index, value in combo:
                apply_correction(candidate, table,
                                 stuck_at_correction(table, line_index,
                                                     value))
            out = output_rows(candidate, simulate(candidate, patterns))
            if popcount(failing_vector_mask(spec_out, out,
                                            patterns.nbits)) == 0:
                records = tuple(
                    CorrectionRecord(f"sa{value}@{table.describe(li)}",
                                     f"sa{value}", table.describe(li))
                    for li, value in combo)
                solutions.append(Solution(records))
        if solutions:
            return solutions
    return []
