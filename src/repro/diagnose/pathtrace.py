"""Path-trace: the first diagnosis step.

The paper uses the line-marking procedure of Venkataraman & Fuchs
(similar to critical path tracing): "For an erroneous vector v, path
trace starts from an erroneous primary output for v and traces backwards
toward the primary inputs of the circuit, while marking lines of
interest" (§2).  Its guarantee — it "always marks at least one line from
every set of valid corrections" — is what keeps the incremental search
complete; the test suite checks the guarantee empirically.

Marking rule at a gate, for the vector's simulated (faulty) values:

* if some inputs carry the gate's controlling value, trace through *all*
  controlling inputs;
* otherwise trace through all inputs (all are non-controlling, so every
  one of them is on a potentially sensitized path);
* NOT/BUF inputs always have controlling value (§2) and are always
  traced.

Both the stem line of each traced signal and the branch line of each
traversed fanout branch are marked.

All sampled vectors are traced together, one bit per vector, in a
single reverse-topological sweep (:func:`_trace_counts`).
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

from ..circuit.gatetypes import GateType, controlling_value
from ..sim.packing import WORD_BITS, bit_indices
from .bitlists import DiagnosisState

_UNTRACED = frozenset((GateType.INPUT, GateType.CONST0, GateType.CONST1,
                       GateType.DFF))


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _sample_masks(rows: np.ndarray, vectors: list) -> list:
    """One Python int per row: bit k is the row's value under
    ``vectors[k]``.  Ints, not words, because a sample may hold any
    number of vectors."""
    words, bits = np.divmod(np.asarray(vectors, dtype=np.int64),
                            WORD_BITS)
    column = (rows[:, words] >> bits.astype(np.uint64)) & np.uint64(1)
    packed = np.packbits(column.astype(np.uint8), axis=1,
                         bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [int.from_bytes(data[i * width:(i + 1) * width], "little")
            for i in range(len(rows))]


def _trace_counts(state: DiagnosisState, vectors: list) -> np.ndarray:
    """Mark counts per line over ``vectors``, all traced in one sweep.

    Bit k of every mask stands for ``vectors[k]``.  ``traced[s]`` holds
    the vectors on which signal ``s`` is reached from an erroneous
    output; one pass in reverse topological order finalises each gate's
    mask before it is pushed to the gate's fanins.  At a gate with a
    controlling value, pin ``p`` is traced on the vectors where it
    carries that value, or where no pin does.  Reachability is a
    monotone OR, so every count equals the per-vector marking.
    """
    netlist = state.netlist
    table = state.table
    gates = netlist.gates
    values = _sample_masks(state.values, vectors)
    full = (1 << len(vectors)) - 1
    traced = [0] * len(gates)
    for po, mask in zip(netlist.outputs,
                        _sample_masks(state.diff, vectors)):
        traced[po] |= mask
    counts = [0] * len(table)
    for signal in reversed(netlist.topo_order()):
        mask = traced[signal]
        if not mask:
            continue
        counts[table.stem(signal).index] += _popcount(mask)
        gate = gates[signal]
        if gate.gtype in _UNTRACED:
            continue
        ctrl = controlling_value(gate.gtype)
        if ctrl is None:
            pin_masks = [mask] * len(gate.fanin)
        else:
            hits = [values[src] if ctrl else full ^ values[src]
                    for src in gate.fanin]
            any_ctrl = 0
            for hit in hits:
                any_ctrl |= hit
            free = mask & ~any_ctrl
            pin_masks = [(mask & hit) | free for hit in hits]
        for pin, pin_mask in enumerate(pin_masks):
            if not pin_mask:
                continue
            traced[gate.fanin[pin]] |= pin_mask
            branch = table.branch(signal, pin)
            if branch is not None:
                counts[branch.index] += _popcount(pin_mask)
    return np.array(counts, dtype=np.int64)


def path_trace_vector(state: DiagnosisState, vector: int) -> set:
    """Line indices marked by path-tracing one failing vector."""
    return {int(line)
            for line in np.flatnonzero(_trace_counts(state, [vector]))}


def derive_seed(base_seed: int, signatures) -> int:
    """Per-node path-trace sampling seed.

    Reusing ``config.seed`` verbatim at every decision-tree node made
    the sampled failing-vector subset *correlated* across the whole
    search: every node with more failing vectors than the sample size
    drew "the same" random indices, so a pathological sample at the
    root stayed pathological all the way down.  Instead each node mixes
    the base seed with its applied-correction signatures.

    The hash is cryptographic (BLAKE2), not ``hash()``: stable across
    processes (``PYTHONHASHSEED``), interpreter versions and the
    worker pool, and independent of the order corrections were applied
    (signatures are sorted), so serial, parallel and resumed runs all
    sample identically at the same tree node.  A node with no applied
    corrections keeps ``base_seed`` itself — root sampling is unchanged
    from earlier releases.
    """
    if not signatures:
        return int(base_seed)
    digest = hashlib.blake2b(digest_size=8)
    digest.update(str(int(base_seed)).encode())
    for signature in sorted(signatures):
        digest.update(b"\x00")
        digest.update(signature.encode())
    return int.from_bytes(digest.digest(), "little")


def path_trace_counts(state: DiagnosisState, max_vectors: int = 24,
                      seed: int = 0) -> np.ndarray:
    """Mark counts per line over a sample of failing vectors.

    Lines with a high count are promoted to the second diagnosis step
    (§3.1: "we allow lines that have a high path-trace count to qualify").
    Returns an int array indexed by line-table position.
    """
    failing = bit_indices(state.err_mask, state.patterns.nbits)
    if not failing:
        return np.zeros(len(state.table), dtype=np.int64)
    if len(failing) > max_vectors:
        rng = random.Random(seed)
        failing = rng.sample(failing, max_vectors)
    return _trace_counts(state, failing)


def marked_lines(counts: np.ndarray) -> list:
    """Line indices with a nonzero path-trace count, highest count first."""
    nz = np.nonzero(counts)[0]
    return sorted((int(i) for i in nz),
                  key=lambda i: (-int(counts[i]), i))


def top_fraction(counts: np.ndarray, fraction: float) -> list:
    """The "top 5-20%" selection of §3.1 (at least one line).

    Tie-inclusive: every line whose count equals the cut-off line's count
    is kept, so equally-suspicious lines are never dropped arbitrarily.
    """
    ranked = marked_lines(counts)
    if not ranked:
        return []
    keep = max(1, int(round(len(ranked) * fraction)))
    cutoff = counts[ranked[keep - 1]]
    while keep < len(ranked) and counts[ranked[keep]] == cutoff:
        keep += 1
    return ranked[:keep]
