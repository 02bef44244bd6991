"""Ranked fault-dictionary diagnosis (the Poirot-style baseline [11]).

:func:`repro.diagnose.baselines.dictionary_diagnosis` demands an *exact*
response match, which multiple faults, noise, or unmodeled defects break
immediately.  Production dictionary tools (the paper cites Venkataraman
& Drummonds' Poirot) therefore *rank* candidates by how well their
simulated signature matches the observation.  This module implements the
two classic flavours:

* **pass/fail dictionary** — per fault, only which vectors fail is
  stored (compact);
* **full-response dictionary** — per fault, the failing (output, vector)
  pairs are stored (precise).

Scoring uses the standard intersection/prediction counts: a candidate is
ranked by how many observed failures it predicts (``hits``), penalized
for failures it predicts that did not occur (``mispredictions``) and for
observed failures it cannot explain (``misses``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuit.lines import LineTable
from ..circuit.netlist import Netlist
from ..sim.compare import masked
from ..sim.faultsim import FaultSimulator, SimFault, all_faults
from ..sim.logicsim import output_rows, simulate
from ..sim.packing import PatternSet, popcount


@dataclass(frozen=True)
class DictionaryMatch:
    """One ranked candidate from a dictionary lookup."""

    fault: SimFault
    site: str
    hits: int            # observed failures the candidate predicts
    misses: int          # observed failures it cannot explain
    mispredictions: int  # predicted failures that were not observed

    @property
    def exact(self) -> bool:
        return self.misses == 0 and self.mispredictions == 0

    def score(self) -> tuple:
        """Sort key: maximize hits, then minimize both error terms."""
        return (-self.hits, self.misses + self.mispredictions,
                self.site)


class FaultDictionary:
    """Precomputed stuck-at signatures for one netlist + vector set."""

    def __init__(self, netlist: Netlist, patterns: PatternSet,
                 full_response: bool = True,
                 faults: list | None = None):
        self.netlist = netlist
        self.patterns = patterns
        self.full_response = full_response
        self.table = LineTable(netlist)
        fsim = FaultSimulator(netlist, patterns, self.table)
        self._good_out = fsim.good_outputs
        self._signatures: dict = {}
        #: Faults dropped without simulation because the implication
        #: bundle proves them untestable (zero detection mask under any
        #: vector set — behaviourally identical to the empty-response
        #: filter below, minus the fault-simulation cost).
        self.statically_skipped = 0
        from ..analyze.dataflow import netlist_facts
        skip = frozenset(netlist_facts(netlist).testability()
                         .untestable_line_keys(self.table))
        for fault in (faults if faults is not None
                      else all_faults(self.table)):
            if (fault.line, fault.value) in skip:
                self.statically_skipped += 1
                continue
            response = fsim.output_response(fault)
            if not response.any():
                continue  # undetectable: never a candidate
            self._signatures[fault.key()] = (
                response if full_response
                else np.bitwise_or.reduce(response, axis=0, keepdims=True))

    def __len__(self) -> int:
        return len(self._signatures)

    # ------------------------------------------------------------------
    def observe(self, device: Netlist) -> np.ndarray:
        """Observed failure signature of a faulty device."""
        device_out = output_rows(device, simulate(device, self.patterns))
        diff = masked(device_out ^ self._good_out, self.patterns.nbits)
        if self.full_response:
            return diff
        return np.bitwise_or.reduce(diff, axis=0)[np.newaxis, :]

    def lookup(self, device: Netlist, top: int = 10
               ) -> list[DictionaryMatch]:
        """Rank all dictionary faults against a device's behaviour."""
        observed = self.observe(device)
        matches = []
        for (line, value), signature in self._signatures.items():
            hits = popcount(signature & observed)
            mispredictions = popcount(signature & ~observed)
            misses = popcount(observed & ~signature)
            matches.append(DictionaryMatch(
                SimFault(line, value), self.table.describe(line),
                hits, misses, mispredictions))
        matches.sort(key=DictionaryMatch.score)
        return matches[:top]
