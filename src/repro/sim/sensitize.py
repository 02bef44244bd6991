"""Sensitized lines and paths (paper §2 definitions).

"A line whose value changes during simulation under the presence of
some fault(s) is called a *sensitized line* and a path of sensitized
lines is called a *sensitized path*."

These utilities materialize those definitions on top of the packed
simulator: per-signal sensitization masks for a fault, and explicit
fault-site-to-output path extraction for one vector — useful for
reports, for debugging the diagnosis heuristics, and as the semantic
ground truth behind path-trace tests.
"""

from __future__ import annotations

import numpy as np

from ..circuit.lines import LineTable
from ..circuit.netlist import Netlist
from ..sim.faultsim import SimFault
from ..sim.logicsim import propagate
from ..sim.packing import WORD_BITS, const_row, popcount, tail_mask


def sensitization_masks(netlist: Netlist, values: np.ndarray,
                        table: LineTable, fault: SimFault,
                        nbits: int) -> dict:
    """{signal: packed mask of vectors where the fault flips it}.

    Only signals sensitized on at least one vector appear.  The faulty
    line's own stem is included when its value actually changes.
    """
    line = table[fault.line]
    changed = propagate(netlist, values,
                        {line.site: const_row(fault.value,
                                              values.shape[1])})
    tail = tail_mask(nbits)
    masks = {}
    for signal, row in changed.items():
        delta = np.array(row ^ values[signal], copy=True)
        delta[-1] &= tail
        if popcount(delta):
            masks[signal] = delta
    return masks


def sensitized_lines(netlist: Netlist, values: np.ndarray,
                     table: LineTable, fault: SimFault,
                     nbits: int) -> set:
    """Signals sensitized by ``fault`` on at least one vector."""
    return set(sensitization_masks(netlist, values, table, fault,
                                   nbits))


def sensitized_path(netlist: Netlist, values: np.ndarray,
                    table: LineTable, fault: SimFault, vector: int,
                    nbits: int) -> list:
    """One sensitized path fault-site -> primary output for ``vector``.

    Returns the list of gate indices along the path (fault site first),
    or ``[]`` when the fault is not observed on that vector.
    """
    masks = sensitization_masks(netlist, values, table, fault, nbits)
    word, bit = divmod(vector, WORD_BITS)

    def lit(signal: int) -> bool:
        mask = masks.get(signal)
        return mask is not None and (int(mask[word]) >> bit) & 1 == 1

    line = table[fault.line]
    # A stem fault's path starts at the driver; a branch fault is only
    # visible from its sink gate onward.
    start = line.driver if line.is_stem else line.sink
    if not lit(start):
        return []
    outputs = set(netlist.outputs)
    fanouts = netlist.fanouts()
    path = [start]
    visited = {start}
    current = start
    while current not in outputs:
        next_hop = None
        for consumer in fanouts[current]:
            if consumer in visited:
                continue
            if lit(consumer):
                next_hop = consumer
                break
        if next_hop is None:
            return []  # effect died before any output on this vector
        path.append(next_hop)
        visited.add(next_hop)
        current = next_hop
    return path
