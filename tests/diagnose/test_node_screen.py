"""The node vocabulary and the node screen of a DEDC expansion.

A DEDC node builds the vocabulary of all its qualifying lines into one
word stack (:func:`repro.diagnose.candidates.node_vocabulary`) and
screens it in one call (:func:`repro.diagnose.screening.screen_corrections`):
heuristic 2 on one popcount, and the survivors of all lines sharing
slot-packed propagates of at most ``SWEEP_SLOTS`` slots, each slot
forcing its own line.  The nodes here are the ones real DEDC searches
expand; the references are the per-line vocabulary
(``vocabulary_oracle``) and the per-correction screen
(``screening_oracle``).
"""

import numpy as np
import pytest

from repro.circuit import generators
from repro.diagnose import (DiagnosisConfig, IncrementalDiagnoser, Mode,
                            bitlists, tree)
from repro.diagnose.candidates import is_correctable_line, node_vocabulary
from repro.diagnose.screening import screen_corrections
from repro.faults import observable_design_error_workload
from repro.faults.models import Correction, corrected_line_words
from repro.sim import PatternSet
from repro.sim.packing import row_popcounts
from tests.diagnose.screening_oracle import oracle_screen
from tests.diagnose.test_screening_batch import assert_same_screen
from tests.diagnose.vocabulary_oracle import node_reference

SPECS = {
    "c17": generators.c17,
    "rca8": lambda: generators.ripple_carry_adder(8),
    "ecc8": lambda: generators.hamming_corrector(8),
}
CONFIG = DiagnosisConfig(mode=Mode.DESIGN_ERROR, exact=False, max_errors=2)
#: Expanded nodes checked per search (the first ones, root included).
NODES = 3


def expanded_nodes(name, nbits, monkeypatch):
    """``(state, potential lines, fields, words, required, h3)`` of the
    first :data:`NODES` nodes a DEDC search expands (the first workload
    seed from 3 on whose search expands a node)."""
    spec = SPECS[name]()
    patterns = PatternSet.random(spec.num_inputs, nbits, seed=nbits)
    nodes, lines = [], []
    real_rank, real_screen = tree.rank_lines, tree.screen_corrections

    def rank(state, candidates, h1):
        potentials = real_rank(state, candidates, h1)
        lines.append([pot.line for pot in potentials])
        return potentials

    def screen(state, corrections, words, required, h3):
        nodes.append((state, lines[-1], list(corrections), words.copy(),
                      required, h3))
        return real_screen(state, corrections, words, required, h3)

    monkeypatch.setattr(tree, "rank_lines", rank)
    monkeypatch.setattr(tree, "screen_corrections", screen)
    for seed in range(3, 8):
        workload = observable_design_error_workload(spec, 2, patterns,
                                                    seed=seed)
        IncrementalDiagnoser(spec, workload.impl, patterns, CONFIG).run()
        if nodes:
            break
    monkeypatch.undo()
    assert nodes
    return nodes[:NODES]


def h2_lines(state, fields, words, required):
    """The line of every heuristic-2 survivor, in order."""
    drivers = [state.table[entry[0]].driver for entry in fields]
    flips = row_popcounts((words ^ state.values[drivers]) & state.err_mask)
    return [entry[0] for entry, count in zip(fields, flips.tolist())
            if count >= max(required, 1)]


def chunk_cases(lines, cap):
    """Which packing cases a screen of survivors on ``lines`` meets."""
    cases = set()
    if len(lines) > cap:
        cases.add("more survivors than the cap")
    for start in range(0, len(lines), cap):
        chunk = lines[start:start + cap]
        cases.add("chunk on one line" if len(set(chunk)) == 1
                  else "chunk across lines")
        if start and lines[start - 1] == lines[start]:
            cases.add("boundary inside a line's run")
    return cases


@pytest.mark.parametrize("nbits", (1, 63, 64, 65))
@pytest.mark.parametrize("name", sorted(SPECS))
def test_node_vocabulary_equals_per_line_reference(name, nbits,
                                                   monkeypatch):
    """A node's stack holds its lines in potential order, each line's
    corrections in enumeration order, and every row is the line value
    its correction predicts; so does a scrambled line order."""
    for state, lines, fields, words, _req, _h3 in expanded_nodes(
            name, nbits, monkeypatch):
        corrections, rows = node_reference(state, lines, CONFIG)
        assert [Correction(*entry) for entry in fields] == corrections
        assert np.array_equal(words, rows)
        for corr, row in zip(corrections, words):
            assert np.array_equal(row, corrected_line_words(
                state.netlist, state.table, corr, state.values)), corr
        correctable = [line for line in range(len(state.table))
                       if is_correctable_line(state, line)]
        scrambled = correctable[1::2] + correctable[::2]
        fields, words = node_vocabulary(state, scrambled, CONFIG)
        corrections, rows = node_reference(state, scrambled, CONFIG)
        assert [Correction(*entry) for entry in fields] == corrections
        assert np.array_equal(words, rows)


def test_empty_node_vocabulary(monkeypatch):
    state = expanded_nodes("c17", 64, monkeypatch)[0][0]
    fields, words = node_vocabulary(state, [], CONFIG)
    assert fields == [] and words.shape == (0, state.patterns.num_words)
    assert screen_corrections(state, fields, words, 1, 0.5) == []


@pytest.mark.parametrize("cap", (bitlists.SWEEP_SLOTS, 3))
@pytest.mark.parametrize("nbits", (1, 63, 64, 65))
@pytest.mark.parametrize("name", sorted(SPECS))
def test_node_screen_equals_oracle(name, nbits, cap, monkeypatch):
    """The node screen equals the per-correction oracle field for field
    on real nodes, at the node's own thresholds and at edge ones: every
    h2 count passing (0 counts as 1), none passing, and heuristic 3 off (``h3 <= 0``)
    or strict.  A cap of 3 packs the same nodes into many sweeps."""
    nodes = expanded_nodes(name, nbits, monkeypatch)
    monkeypatch.setattr(bitlists, "SWEEP_SLOTS", cap)
    cases = set()
    for state, _lines, fields, words, required, h3 in nodes:
        corrections = [Correction(*entry) for entry in fields]
        for bits in (required, 0, 1, state.num_err + 1):
            reference = oracle_screen(state, corrections, bits, 0.0)
            if bits > state.num_err:
                assert reference == []
            cases |= chunk_cases(h2_lines(state, fields, words, bits), cap)
            for threshold in (h3, 0.0, -1.0, 0.9):
                expected = [sc for sc in reference
                            if threshold <= 0 or sc.h3_score >= threshold]
                assert_same_screen(
                    screen_corrections(state, fields, words, bits,
                                       threshold), expected)
    if name != "c17" and nbits > 1:
        assert "more survivors than the cap" in cases
        if cap == 3:
            assert cases == {"more survivors than the cap",
                             "chunk on one line", "chunk across lines",
                             "boundary inside a line's run"}
