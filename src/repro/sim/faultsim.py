"""Stuck-at fault simulation (parallel-pattern single-fault propagation).

Serial over faults, 64-way bit-parallel over patterns, with fanout-cone
restricted event propagation per fault — the classic PPSFP organization.
Used by the ATPG substrate (:mod:`repro.tgen`), by test-set compaction
and by the experiment harnesses to measure fault coverage of the vector
sets fed to the diagnosis engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuit.lines import LineTable
from ..circuit.netlist import Netlist
from .logicsim import output_rows, propagate, simulate
from .packing import PatternSet, const_row, popcount, tail_mask


@dataclass(frozen=True)
class SimFault:
    """A stuck-at fault bound to a line-table index."""

    line: int
    value: int

    def key(self) -> tuple:
        return (self.line, self.value)


def all_faults(table: LineTable) -> list[SimFault]:
    """The full (uncollapsed) stuck-at fault universe of a netlist."""
    faults = []
    for line in table:
        faults.append(SimFault(line.index, 0))
        faults.append(SimFault(line.index, 1))
    return faults


class FaultSimulator:
    """PPSFP fault simulator over a fixed netlist + pattern set."""

    def __init__(self, netlist: Netlist, patterns: PatternSet,
                 table: LineTable | None = None):
        self.netlist = netlist
        self.patterns = patterns
        self.table = table or LineTable(netlist)
        self.values = simulate(netlist, patterns)
        self.good_outputs = output_rows(netlist, self.values)
        self._tail = tail_mask(patterns.nbits)
        # Big-int rows of ``values``, shared by every fault's propagate.
        self._base_ints: dict[int, int] = {}

    def output_response(self, fault: SimFault) -> np.ndarray:
        """Per-output packed mismatch rows of ``fault`` (tail-masked):
        bit *v* of row *p* is set when vector *v* shows the fault at
        primary output *p*.  One propagate of the stuck line's cone."""
        line = self.table[fault.line]
        forced = const_row(fault.value, self.values.shape[1])
        changed = propagate(self.netlist, self.values, {line.site: forced},
                            base_ints=self._base_ints)
        rows = np.zeros_like(self.good_outputs)
        for pos, po in enumerate(self.netlist.outputs):
            row = changed.get(po)
            if row is not None:
                rows[pos] = row ^ self.good_outputs[pos]
        rows[:, -1] &= self._tail
        return rows

    def detection_mask(self, fault: SimFault) -> np.ndarray:
        """Packed mask of vectors detecting ``fault`` at some output."""
        return np.bitwise_or.reduce(self.output_response(fault), axis=0)

    def detects(self, fault: SimFault) -> bool:
        return popcount(self.detection_mask(fault)) > 0

    def run(self, faults, drop_detected: bool = False) -> dict:
        """Simulate ``faults``; returns {fault: detection mask}.

        With ``drop_detected`` the result only contains the first
        detection information needed for coverage (masks still exact).
        """
        result = {}
        for fault in faults:
            mask = self.detection_mask(fault)
            if drop_detected and popcount(mask) == 0:
                continue
            result[fault] = mask
        return result

    def coverage(self, faults) -> float:
        """Fraction of ``faults`` detected by the pattern set."""
        faults = list(faults)
        if not faults:
            return 1.0
        detected = sum(1 for f in faults if self.detects(f))
        return detected / len(faults)
