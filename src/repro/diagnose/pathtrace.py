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
single reverse-topological sweep (:func:`_trace_counts`).  The sweep is
the inner loop of exact mode (one per decision-tree node), so it pays
only for what decides a count: it reads the line table's stem and
branch maps directly, picks a gate's controlling value by identity
(0 for AND/NAND, 1 for OR/NOR), and counts bits with ``int.bit_count``
where the interpreter has it.  :func:`marked_lines` ranks the marked
lines with one stable sort keyed by a list lookup.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

from ..circuit.gatetypes import GateType
from ..sim.packing import WORD_BITS, bit_indices
from .bitlists import DiagnosisState

_UNTRACED = frozenset((GateType.INPUT, GateType.CONST0, GateType.CONST1,
                       GateType.DFF))
_AND, _NAND = GateType.AND, GateType.NAND
_OR, _NOR = GateType.OR, GateType.NOR


def _bin_popcount(mask: int) -> int:
    return bin(mask).count("1")


#: ``int.bit_count`` is Python 3.10+; 3.9 counts the binary digits.
_popcount = getattr(int, "bit_count", _bin_popcount)


def _sample_masks(rows: np.ndarray, vectors: list) -> list:
    """One Python int per row: bit k is the row's value under
    ``vectors[k]``.  Ints, not words, because a sample may hold any
    number of vectors; each 64 of them are OR-reduced into one word
    per row, so a sample of at most 64 needs no Python loop."""
    words, bits = np.divmod(np.asarray(vectors, dtype=np.int64),
                            WORD_BITS)
    column = (rows[:, words] >> bits.astype(np.uint64)) & np.uint64(1)
    column <<= np.arange(len(vectors), dtype=np.uint64) % np.uint64(WORD_BITS)
    masks = np.bitwise_or.reduce(column[:, :WORD_BITS], axis=1).tolist()
    for start in range(WORD_BITS, len(vectors), WORD_BITS):
        chunk = np.bitwise_or.reduce(column[:, start:start + WORD_BITS],
                                     axis=1).tolist()
        masks = [mask | (word << start)
                 for mask, word in zip(masks, chunk)]
    return masks


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
    gates = netlist.gates
    stem_of = state.table.stem_of_gate
    branch_of = state.table.branch_of
    popcount = _popcount
    values = _sample_masks(state.values, vectors)
    full = (1 << len(vectors)) - 1
    traced = [0] * len(gates)
    for po, mask in zip(netlist.outputs,
                        _sample_masks(state.diff, vectors)):
        traced[po] |= mask
    counts = [0] * len(state.table)
    for signal in reversed(netlist.topo_order()):
        mask = traced[signal]
        if not mask:
            continue
        counts[stem_of[signal]] += popcount(mask)
        gate = gates[signal]
        gtype = gate.gtype
        fanin = gate.fanin
        if gtype is _AND or gtype is _NAND:
            hits = [full ^ values[src] for src in fanin]
        elif gtype is _OR or gtype is _NOR:
            hits = [values[src] for src in fanin]
        elif gtype in _UNTRACED:
            continue
        else:
            # A BUF/NOT pin always controls, and XOR/XNOR have no
            # controlling value: either way every pin is traced on the
            # gate's whole mask, as if it always carried one.
            hits = [full] * len(fanin)
        any_ctrl = 0
        for hit in hits:
            any_ctrl |= hit
        free = mask & ~any_ctrl
        for pin, hit in enumerate(hits):
            pin_mask = (mask & hit) | free
            if not pin_mask:
                continue
            traced[fanin[pin]] |= pin_mask
            branch = branch_of.get((signal, pin))
            if branch is not None:
                counts[branch] += popcount(pin_mask)
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
    negated = (-counts).tolist()
    # One stable sort of ascending indices, so ties keep index order.
    # (A numpy stable argsort is a little faster, but raised the
    # benchmark's peak RSS by about 0.4 MB.)
    return sorted(np.flatnonzero(counts).tolist(), key=negated.__getitem__)


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
