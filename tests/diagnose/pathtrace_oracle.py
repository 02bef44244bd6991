"""Reference path trace: the per-vector depth-first marking.

One DFS per failing vector, straight from the marking rule of §2.  The
library marks all sampled vectors in one word-parallel sweep
(:func:`repro.diagnose.pathtrace.path_trace_counts`); the tests check it
against this oracle count for count.
"""

import random

import numpy as np

from repro.circuit.gatetypes import GateType, controlling_value
from repro.sim.packing import WORD_BITS, bit_indices


def dfs_path_trace_vector(state, vector: int) -> set:
    """Line indices marked by path-tracing one failing vector."""
    netlist = state.netlist
    table = state.table
    word, bit = divmod(vector, WORD_BITS)
    shift = np.uint64(bit)
    one = np.uint64(1)
    column = ((state.values[:, word] >> shift) & one).astype(np.uint8)
    marked: set = set()
    visited: set = set()
    stack: list = []
    for pos, po in enumerate(netlist.outputs):
        if (int(state.diff[pos, word]) >> bit) & 1:
            stack.append(po)
    gates = netlist.gates
    while stack:
        signal = stack.pop()
        if signal in visited:
            continue
        visited.add(signal)
        marked.add(table.stem(signal).index)
        gate = gates[signal]
        if gate.gtype in (GateType.INPUT, GateType.CONST0,
                          GateType.CONST1, GateType.DFF):
            continue
        ctrl = controlling_value(gate.gtype)
        pins = range(len(gate.fanin))
        if ctrl is not None:
            controlling_pins = [p for p in pins
                                if column[gate.fanin[p]] == ctrl]
            if controlling_pins:
                pins = controlling_pins
        for pin in pins:
            branch = table.branch(signal, pin)
            if branch is not None:
                marked.add(branch.index)
            stack.append(gate.fanin[pin])
    return marked


def dfs_path_trace_counts(state, max_vectors: int = 24,
                          seed: int = 0) -> np.ndarray:
    """Mark counts per line over the same sample the library draws."""
    counts = np.zeros(len(state.table), dtype=np.int64)
    failing = bit_indices(state.err_mask, state.patterns.nbits)
    if len(failing) > max_vectors:
        failing = random.Random(seed).sample(failing, max_vectors)
    for vector in failing:
        for line in dfs_path_trace_vector(state, vector):
            counts[line] += 1
    return counts
